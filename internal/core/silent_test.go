package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"testing"

	"ntpscan/internal/netsim"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
)

// TestSilentTargetsMoveNoByte runs a clean campaign at the benchmark's
// scale twice: as it is, where most targets read silent and the scanner
// writes their rows without probing them, and beside an idle sniffer on
// 2001:db8::/32, which keeps every target from reading silent so every
// probe runs. The JSONL, the telemetry and the store directory must be
// the same bytes.
func TestSilentTargetsMoveNoByte(t *testing.T) {
	run := func(sniff bool) (jsonl, telemetry, dir string) {
		cfg := Config{
			Seed:    11,
			World:   world.Config{DeviceScale: 3e-3, AddrScale: 6e-6, ASScale: 0.03},
			Workers: 2,
		}
		p := NewPipeline(cfg)
		if sniff {
			defer p.W.Fabric().Sniff(netip.MustParsePrefix("2001:db8::/32"), func(netsim.PacketInfo) {})()
		}
		dir = t.TempDir()
		st, err := store.Open(dir, store.Options{Obs: p.Obs})
		if err != nil {
			t.Fatal(err)
		}
		var out, tel bytes.Buffer
		if _, err := p.RunCampaign(context.Background(), CampaignOpts{Store: st, Out: &out, Telemetry: &tel}); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(out.Bytes())), fmt.Sprintf("%x", sha256.Sum256(tel.Bytes())), store.DirDigest(t, dir)
	}
	silentOut, silentTel, silentDir := run(false)
	probedOut, probedTel, probedDir := run(true)
	for _, c := range []struct{ name, silent, probed string }{
		{"JSONL", silentOut, probedOut},
		{"telemetry", silentTel, probedTel},
		{"store directory", silentDir, probedDir},
	} {
		if c.silent != c.probed {
			t.Errorf("%s: sha256 %s with silent targets, %s with every probe run", c.name, c.silent, c.probed)
		}
	}
}
