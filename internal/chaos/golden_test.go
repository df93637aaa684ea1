package chaos

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"testing"

	"ntpscan/internal/core"
	"ntpscan/internal/netsim"
	"ntpscan/internal/store"
)

// The faulted, store-backed campaign's three outputs, byte for byte, at
// three seeds: the JSONL stream, the telemetry stream and the store
// directory (store.DirDigest) as SHA-256. Every other oracle compares a
// run with another run of the same commit; this one compares with the
// bytes the campaign has always written, so a change to the segment
// writer or the compactor that moves one byte of any segment fails
// here even when it moves every run alike. The recipe is Config(seed)
// at the 1x world (NTPSCAN_CHAOS_SCALE does not apply) with
// FaultedPipeline(seed+1, DefaultSpec()), and Out, Telemetry and Store
// on the pipeline's registry.
func TestFaultedCampaignGoldenDigests(t *testing.T) {
	golden := []struct {
		seed                    uint64
		jsonl, telemetry, store string
	}{
		{11,
			"0386f7a756cf12c2da58e535602fd4e4d5de4c317412fcb9243b1a83263ae54a",
			"662abf0cf8530a8db7482d846b20e12e5dcbd0d30e920e9f0702825675472d58",
			"9b7ba7fc48f44e0ee937132a4a541e4e5a0b05a4c42a3f96d10c3170ac33be0a"},
		{23,
			"281b1654e2d83386ca4d81b08a91a380445b1c7713fec4be933f23411e5d01aa",
			"8f1748ae5e4d3393d2c716097817a81f15f31ee22dbce0d8df7eed23d665fd18",
			"b2be300a40f7b041685c8ffe737ef31c2da9fca96ae0712f33e7fb52782254ca"},
		{42,
			"27e1b9968fac154c0c444db52dcc070626d1de2db78c714eba070e55eac7d8b1",
			"7d24c7234015ff8eb23c4791f6461eccaca5ca5eb30d37c33df80edb3eafa5ad",
			"7c7a8d3545f7de33c8df74ea74f507aa66a81b1b12eb4511542645bfb18ee98b"},
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("seed=%d", g.seed), func(t *testing.T) {
			cfg := Config(g.seed)
			cfg.World.AddrScale = 1e-6
			p := FaultedPipeline(cfg, g.seed+1, DefaultSpec())
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{Obs: p.Obs})
			if err != nil {
				t.Fatal(err)
			}
			var out, tel bytes.Buffer
			if _, err := p.RunCampaign(context.Background(), core.CampaignOpts{Store: st, Out: &out, Telemetry: &tel}); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct{ name, got, want string }{
				{"JSONL", fmt.Sprintf("%x", sha256.Sum256(out.Bytes())), g.jsonl},
				{"telemetry", fmt.Sprintf("%x", sha256.Sum256(tel.Bytes())), g.telemetry},
				{"store directory", store.DirDigest(t, dir), g.store},
			} {
				if c.got != c.want {
					t.Errorf("%s moved: sha256 %s, golden %s", c.name, c.got, c.want)
				}
			}
		})
	}
}

// TestFaultedSilentTargetsMoveNoByte is core's TestSilentTargetsMoveNoByte
// under the default fault plan, with retries off so the scanner asks the
// fabric whether a target is silent: a dark address a fault acts on is
// not, so its probes run and the fault books count the dials and
// datagrams the plan kills. The JSONL and the telemetry must be the same
// bytes as the campaign's beside an idle sniffer, where every probe runs.
func TestFaultedSilentTargetsMoveNoByte(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			run := func(sniff bool) (jsonl, telemetry string) {
				cfg := Config(seed)
				cfg.Retry = nil
				p := FaultedPipeline(cfg, seed+1, DefaultSpec())
				if sniff {
					defer p.W.Fabric().Sniff(netip.MustParsePrefix("2001:db8::/32"), func(netsim.PacketInfo) {})()
				}
				var out, tel bytes.Buffer
				if _, err := p.RunCampaign(context.Background(), core.CampaignOpts{Out: &out, Telemetry: &tel}); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x", sha256.Sum256(out.Bytes())), fmt.Sprintf("%x", sha256.Sum256(tel.Bytes()))
			}
			silentOut, silentTel := run(false)
			probedOut, probedTel := run(true)
			if silentOut != probedOut {
				t.Errorf("JSONL: sha256 %s with silent targets, %s with every probe run", silentOut, probedOut)
			}
			if silentTel != probedTel {
				t.Errorf("telemetry: sha256 %s with silent targets, %s with every probe run", silentTel, probedTel)
			}
		})
	}
}
