package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"ntpscan/internal/cluster"
	"ntpscan/internal/core"
	"ntpscan/internal/store"
)

// Congested-fabric chaos: the campaign behind saturated link queues and
// mid-campaign route churn (SaturatedSpec). The oracle is unchanged
// from every other chaos leg — congestion may reshape the output, but
// it must never make it depend on worker count, node count, or where a
// checkpoint fell. `make chaos` runs this file as its own leg
// (-run 'Congested'); the first leg skips it to avoid double work.

// congestedNodeSpec merges SaturatedSpec's link layer onto the
// canonical node-loss schedule. Link draws come from their own derived
// stream, so the link plan here is bit-identical to SaturatedSpec's —
// the property that lets cluster runs share physics with the
// single-process baseline.
func congestedNodeSpec(nodes, kills int) Spec {
	s := NodeLossSpec(nodes, kills)
	l := SaturatedSpec()
	s.CongestedVantages = l.CongestedVantages
	s.CongestedPrefixes = l.CongestedPrefixes
	s.LinkQueuePkts = l.LinkQueuePkts
	s.LinkBytesPerSec = l.LinkBytesPerSec
	s.LinkPropDelay = l.LinkPropDelay
	s.LinkUtilization = l.LinkUtilization
	s.LinkJitter = l.LinkJitter
	s.RouteChurns = l.RouteChurns
	s.ChurnDownSlices = l.ChurnDownSlices
	return s
}

// requireCongestion asserts the campaign actually ran through the link
// layer: exchanges traversed queues, and the saturated plan cost some
// of them (tail drops, churn drops, or late deliveries).
func requireCongestion(t *testing.T, p *core.Pipeline) {
	t.Helper()
	enq, _ := p.Obs.Value("link_enqueued_total")
	if enq == 0 {
		t.Fatal("saturated plan never traversed a link — the congested leg is vacuous")
	}
	tail, _ := p.Obs.Value("link_dropped_tail_total")
	churn, _ := p.Obs.Value("link_dropped_churn_total")
	late, _ := p.Obs.Value("link_late_total")
	if tail+churn+late == 0 {
		t.Fatalf("saturated plan cost nothing: enqueued %d, no drops, no late", enq)
	}
	t.Logf("link: enqueued %d, tail %d, churn %d, late %d", enq, tail, churn, late)
}

// Byte-identity across worker counts under saturated queues and route
// churn — the tentpole's first determinism oracle.
func TestCongestedCampaignDeterministicAcrossWorkers(t *testing.T) {
	NoGoroutineLeaks(t)
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			run := func(workers int) (*core.Pipeline, *bytes.Buffer, string) {
				cfg := chaosConfig(seed)
				cfg.Workers = workers
				dir := t.TempDir()
				p := faultedPipeline(cfg, seed+1, SaturatedSpec())
				st, err := store.Open(dir, store.Options{Obs: p.Obs})
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if _, err := p.RunCampaign(context.Background(), core.CampaignOpts{Out: &out, Store: st}); err != nil {
					t.Fatal(err)
				}
				return p, &out, store.DirDigest(t, dir)
			}
			p1, out1, store1 := run(1)
			if out1.Len() == 0 {
				t.Fatal("congested campaign produced no output")
			}
			requireCongestion(t, p1)
			stats1 := fmt.Sprintf("%+v", p1.Summary.Stats())
			for _, workers := range []int{3, 8} {
				p, out, sd := run(workers)
				if !bytes.Equal(out.Bytes(), out1.Bytes()) {
					t.Errorf("workers=%d congested JSONL diverges (%d vs %d bytes)", workers, out.Len(), out1.Len())
				}
				if sd != store1 {
					t.Errorf("workers=%d congested store directory diverges", workers)
				}
				if got := fmt.Sprintf("%+v", p.Summary.Stats()); got != stats1 {
					t.Errorf("workers=%d Summary diverges:\n got %s\nwant %s", workers, got, stats1)
				}
				if p.Captures != p1.Captures {
					t.Errorf("workers=%d Captures = %d, want %d", workers, p.Captures, p1.Captures)
				}
			}
		})
	}
}

// Kill-and-resume under congestion: the regenerated plan (same
// arguments, fresh pipeline) must reproduce the remaining output
// byte-for-byte even though queue draws fold the instant and churn
// epoch into every hash.
func TestCongestedResumeReproducesOutput(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := SaturatedSpec()

			var full bytes.Buffer
			var cps []*core.Checkpoint
			p1 := faultedPipeline(chaosConfig(seed), seed+1, spec)
			_, err := p1.RunCampaign(context.Background(), core.CampaignOpts{
				Out:             &full,
				CheckpointEvery: 24,
				OnCheckpoint:    func(cp *core.Checkpoint) { cps = append(cps, cp) },
			})
			if err != nil {
				t.Fatal(err)
			}
			requireCongestion(t, p1)
			if len(cps) < 2 {
				t.Fatalf("expected >=2 checkpoints, got %d", len(cps))
			}

			blob, err := json.Marshal(cps[1])
			if err != nil {
				t.Fatal(err)
			}
			var cp core.Checkpoint
			if err := json.Unmarshal(blob, &cp); err != nil {
				t.Fatal(err)
			}

			var rest bytes.Buffer
			p2 := faultedPipeline(chaosConfig(seed), seed+1, spec)
			if _, err := p2.ResumeCampaign(context.Background(), &cp, core.CampaignOpts{Out: &rest}); err != nil {
				t.Fatal(err)
			}

			want := full.Bytes()[cp.OutOffset:]
			if !bytes.Equal(rest.Bytes(), want) {
				t.Fatalf("congested resume diverges: %d bytes vs %d expected", rest.Len(), len(want))
			}
			if p2.Captures != p1.Captures {
				t.Errorf("resumed Captures = %d, want %d", p2.Captures, p1.Captures)
			}
			if got, wantS := fmt.Sprintf("%+v", p2.Summary.Stats()), fmt.Sprintf("%+v", p1.Summary.Stats()); got != wantS {
				t.Errorf("resumed Summary diverges:\n got %s\nwant %s", got, wantS)
			}
		})
	}
}

// Nodes=1/3/8 under saturated links, node loss, and route churn — and
// because link draws are independent of node-fault draws, all of them
// must also match the single-process SaturatedSpec baseline.
func TestCongestedClusterByteIdenticalAcrossNodes(t *testing.T) {
	NoGoroutineLeaks(t)
	seed := chaosSeeds(t)[0]

	var want bytes.Buffer
	base := faultedPipeline(chaosConfig(seed), seed+1, SaturatedSpec())
	if _, err := base.RunCampaign(context.Background(), core.CampaignOpts{Out: &want}); err != nil {
		t.Fatal(err)
	}
	requireCongestion(t, base)

	for _, nodes := range []int{1, 3, 8} {
		var got bytes.Buffer
		p := faultedPipeline(chaosConfig(seed), seed+1, congestedNodeSpec(nodes, 1))
		if _, _, err := cluster.Run(context.Background(), p, cluster.Config{Nodes: nodes},
			core.CampaignOpts{Out: &got}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("nodes=%d: congested cluster JSONL diverges from single-process run (%d vs %d bytes)",
				nodes, got.Len(), want.Len())
		}
	}
}

// The link plan itself is pure data: regenerating it from the same
// (pipeline config, seed, spec) encodes to identical bytes, and the
// saturated spec actually populates every schedule it promises.
func TestCongestedLinkPlanRegenerationIdentical(t *testing.T) {
	seed := chaosSeeds(t)[0]
	p := core.NewPipeline(chaosConfig(seed))
	a := PlanFor(p, seed+1, SaturatedSpec())
	b := PlanFor(p, seed+1, SaturatedSpec())
	if a.Links == nil || b.Links == nil {
		t.Fatal("SaturatedSpec produced no link plan")
	}
	ea, err := a.Links.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Links.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("regenerated link plan diverges:\n%s\n%s", ea, eb)
	}
	if len(a.Links.Vantages) == 0 || len(a.Links.Prefixes) == 0 || len(a.Links.Churn) == 0 {
		t.Fatalf("saturated plan is missing schedules: %d vantages, %d prefixes, %d churn events",
			len(a.Links.Vantages), len(a.Links.Prefixes), len(a.Links.Churn))
	}
}
