package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"testing"

	"ntpscan/internal/analysis"
	"ntpscan/internal/core"
	"ntpscan/internal/rng"
	"ntpscan/internal/zgrab"
)

// The scenario matrix lives in hooks.go (exported, shared with the
// observability invariant suite); these aliases keep the tests terse.

func chaosSeeds(t *testing.T) []uint64 { return Seeds() }

func chaosConfig(seed uint64) core.Config { return Config(seed) }

func faultedPipeline(cfg core.Config, planSeed uint64, spec Spec) *core.Pipeline {
	return FaultedPipeline(cfg, planSeed, spec)
}

func digest(t *testing.T, d *analysis.Dataset) uint64 {
	t.Helper()
	h := rng.NewHash()
	for _, r := range d.Results {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		h = h.Bytes(b).Byte('\n')
	}
	return uint64(h)
}

func successStats(d *analysis.Dataset) (total int, distinct int) {
	ips := make(map[netip.Addr]struct{})
	for _, r := range d.Results {
		if r.Success() {
			total++
			ips[r.IP] = struct{}{}
		}
	}
	return total, len(ips)
}

// The faulted campaign must be exactly as replayable as a clean one:
// same (seed, plan, shards) at any worker count is bit-identical.
func TestFaultedCampaignDeterministicAcrossWorkers(t *testing.T) {
	NoGoroutineLeaks(t)
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			run := func(workers int) (*core.Pipeline, *analysis.Dataset) {
				cfg := chaosConfig(seed)
				cfg.Workers = workers
				p := faultedPipeline(cfg, seed+1, DefaultSpec())
				ds, err := p.RunCampaign(context.Background(), core.CampaignOpts{})
				if err != nil {
					t.Fatal(err)
				}
				return p, ds
			}
			p1, d1 := run(1)
			if len(d1.Results) == 0 {
				t.Fatal("faulted campaign produced no results")
			}
			base := digest(t, d1)
			stats1 := fmt.Sprintf("%+v", p1.Summary.Stats())
			for _, workers := range []int{3, 8} {
				p, d := run(workers)
				if got := digest(t, d); got != base {
					t.Errorf("workers=%d faulted dataset digest %x, want %x", workers, got, base)
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

// The convergence criterion: a campaign run under the default fault
// plan, with retries and the self-healing responsive channel, lands
// within tolerance of the clean campaign — both in scan successes and
// in distinct responsive addresses. The 25% tolerance is documented in
// EXPERIMENTS.md; vantage blackouts genuinely erase a slice of the
// volume channel, so exact equality is not expected.
func TestFaultedConvergesToClean(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clean := core.NewPipeline(chaosConfig(seed))
			cds, err := clean.RunCampaign(context.Background(), core.CampaignOpts{})
			if err != nil {
				t.Fatal(err)
			}
			faulted := faultedPipeline(chaosConfig(seed), seed+1, DefaultSpec())
			fds, err := faulted.RunCampaign(context.Background(), core.CampaignOpts{})
			if err != nil {
				t.Fatal(err)
			}

			ct, cd := successStats(cds)
			ft, fd := successStats(fds)
			if ct == 0 {
				t.Fatal("clean campaign found nothing")
			}
			t.Logf("clean: %d successes / %d distinct; faulted: %d / %d", ct, cd, ft, fd)
			within := func(name string, clean, faulted int) {
				lo := float64(clean) * 0.75
				hi := float64(clean) * 1.25
				if f := float64(faulted); f < lo || f > hi {
					t.Errorf("%s: faulted %d outside 25%% of clean %d", name, faulted, clean)
				}
			}
			within("successes", ct, ft)
			within("distinct responsive IPs", cd, fd)
		})
	}
}

// Retries must actually help: under the same plan, a single-attempt
// scanner finds no more than the retrying one.
func TestRetriesRecoverLosses(t *testing.T) {
	seed := chaosSeeds(t)[0]
	spec := DefaultSpec()
	run := func(retry *zgrab.RetryPolicy) int {
		cfg := chaosConfig(seed)
		cfg.Retry = retry
		p := faultedPipeline(cfg, seed+1, spec)
		ds, err := p.RunCampaign(context.Background(), core.CampaignOpts{})
		if err != nil {
			t.Fatal(err)
		}
		total, _ := successStats(ds)
		return total
	}
	single := run(nil)
	retried := run(zgrab.DefaultRetryPolicy())
	t.Logf("successes: single-attempt %d, with retries %d", single, retried)
	if retried < single {
		t.Fatalf("retries lost results: %d with vs %d without", retried, single)
	}
}

// Kill-and-resume under faults: resuming a fresh pipeline (same
// config, same regenerated plan) from a mid-campaign checkpoint
// reproduces the uninterrupted run's remaining JSONL output
// byte-for-byte, and converges to identical collection statistics.
func TestResumeUnderFaultsReproducesOutput(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := DefaultSpec()

			var full bytes.Buffer
			var cps []*core.Checkpoint
			p1 := faultedPipeline(chaosConfig(seed), seed+1, spec)
			d1, err := p1.RunCampaign(context.Background(), core.CampaignOpts{
				Out:             &full,
				CheckpointEvery: 24,
				OnCheckpoint:    func(cp *core.Checkpoint) { cps = append(cps, cp) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(cps) < 2 {
				t.Fatalf("expected >=2 checkpoints, got %d", len(cps))
			}

			// Round-trip the middle checkpoint through JSON — a real
			// kill+resume goes through disk.
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
			d2, err := p2.ResumeCampaign(context.Background(), &cp, core.CampaignOpts{Out: &rest})
			if err != nil {
				t.Fatal(err)
			}

			want := full.Bytes()[cp.OutOffset:]
			if !bytes.Equal(rest.Bytes(), want) {
				t.Fatalf("resumed output diverges: %d bytes vs %d expected", rest.Len(), len(want))
			}
			if p2.Captures != p1.Captures {
				t.Errorf("resumed Captures = %d, want %d", p2.Captures, p1.Captures)
			}
			if got, want := fmt.Sprintf("%+v", p2.Summary.Stats()), fmt.Sprintf("%+v", p1.Summary.Stats()); got != want {
				t.Errorf("resumed Summary diverges:\n got %s\nwant %s", got, want)
			}
			// The resumed dataset holds the tail; its results must match
			// the full run's tail result-for-result.
			tail := d1.Results[len(d1.Results)-len(d2.Results):]
			for i, r := range d2.Results {
				a, _ := json.Marshal(r)
				b, _ := json.Marshal(tail[i])
				if !bytes.Equal(a, b) {
					t.Fatalf("resumed result %d diverges:\n got %s\nwant %s", i, a, b)
				}
			}
		})
	}
}
