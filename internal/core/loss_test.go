package core

import (
	"context"
	"net/netip"
	"testing"

	"ntpscan/internal/analysis"
	"ntpscan/internal/netsim"
	"ntpscan/internal/world"
)

// Failure injection: the pipeline must behave sensibly on a lossy
// fabric — degraded scans, never hangs or crashes.

// lossyPipeline deploys a pipeline whose fabric loses each packet with
// probability loss for the whole collection window, everywhere: one
// FaultLoss over ::/0, the mechanism the chaos plans use per /48.
func lossyPipeline(seed uint64, loss float64) *Pipeline {
	p := NewPipeline(Config{
		Seed: seed,
		World: world.Config{
			DeviceScale: 1e-3,
			AddrScale:   1e-6,
			ASScale:     0.02,
		},
		Workers: 16,
	})
	if loss > 0 {
		plan := &netsim.FaultPlan{Seed: seed}
		plan.Add(netsim.Fault{
			Kind:   netsim.FaultLoss,
			Prefix: netip.MustParsePrefix("::/0"),
			From:   p.W.Cfg.Start,
			Until:  p.W.Cfg.Start.Add(2 * world.CollectionWindow),
			Prob:   loss,
		})
		p.InstallFaults(plan)
	}
	return p
}

func TestLossyScanStillFindsDevices(t *testing.T) {
	p := lossyPipeline(6, 0.3)
	data := p.RunNTPCampaign(context.Background())
	resp, _, _ := analysis.HitRate(data)
	if resp == 0 {
		t.Fatal("nothing found through a 30% lossy fabric")
	}
	// A TCP grab needs only its SYN to survive, a UDP probe both its
	// datagrams: HTTP findings survive where CoAP suffers.
	groups := analysis.TitleGroups(data)
	if analysis.FindGroup(groups, "FRITZ!Box") == nil {
		t.Fatal("TCP findings lost under 30% loss")
	}
}

func TestCoAPDegradesUnderLoss(t *testing.T) {
	count := func(loss float64) int {
		p := lossyPipeline(7, loss)
		data := p.RunNTPCampaign(context.Background())
		n := 0
		for range data.Successes("coap") {
			n++
		}
		return n
	}
	clean, lossy := count(0), count(0.6)
	if clean == 0 {
		t.Skip("no CoAP devices at this scale")
	}
	if lossy >= clean {
		t.Fatalf("CoAP successes did not degrade: %d vs %d", lossy, clean)
	}
}
