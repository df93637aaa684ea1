package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ntpscan/internal/core"
	"ntpscan/internal/store"
)

// The regression pin for the torn-tail flake (ROADMAP item 4): the
// scheduling-dependent value was the *order of capture rows* — when two
// shards first-captured the same address in the same slice, the
// cross-shard first-win race decided which shard's capture log carried
// the row, so the store's capture rows (and one segment's bytes) could
// wobble with worker interleaving while JSONL and telemetry stayed
// fixed. Shard effects are now buffered and committed in ascending
// shard order at the barrier, making row order worker-invariant. This
// test pins that at the row level — raw store rows, compared
// one-by-one across worker counts under the fault fabric, over the
// seed matrix the flake was chased with — so a recurrence names the
// exact diverging row instead of a one-byte digest mismatch.
func TestStoreRowsIdenticalAcrossWorkers(t *testing.T) {
	for _, seed := range []uint64{11, 23, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rows := func(workers int) []string {
				cfg := Config(seed)
				cfg.Workers = workers
				p := FaultedPipeline(cfg, seed+1, DefaultSpec())
				st, err := store.Open(t.TempDir(), store.Options{Obs: p.Obs})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.RunCampaign(context.Background(), core.CampaignOpts{Store: st}); err != nil {
					t.Fatal(err)
				}
				var out []string
				it := st.Scan(store.Pred{})
				for it.Next() {
					b, err := json.Marshal(it.Row())
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, string(b))
				}
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := rows(1)
			if len(want) == 0 {
				t.Fatal("store holds no rows")
			}
			for _, workers := range []int{3, 8} {
				got := rows(workers)
				if len(got) != len(want) {
					t.Errorf("workers=%d: %d rows, want %d", workers, len(got), len(want))
				}
				for i := range want {
					if i < len(got) && got[i] != want[i] {
						t.Errorf("workers=%d: row %d diverges:\n got %s\nwant %s", workers, i, got[i], want[i])
						break
					}
				}
			}
		})
	}
}

// Crash recovery under faults: a store-backed faulted campaign is
// killed with a torn tail — the newest segment half-written, a stray
// .tmp staged, and the manifest rolled back to the last checkpoint's
// state — and the resumed run must recover the directory and finish
// bit-identical to the uninterrupted run, torn bytes and all.
func TestStoreTornTailRecoveryUnderFaults(t *testing.T) {
	NoGoroutineLeaks(t)
	for _, seed := range Seeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Uninterrupted reference run.
			cfg := Config(seed)
			p1 := FaultedPipeline(cfg, seed+1, DefaultSpec())
			fullDir := t.TempDir()
			st1, err := store.Open(fullDir, store.Options{Obs: p1.Obs})
			if err != nil {
				t.Fatal(err)
			}
			var full bytes.Buffer
			var cps []*core.Checkpoint
			crashDir := t.TempDir()
			if _, err := p1.RunCampaign(context.Background(), core.CampaignOpts{
				Store:           st1,
				Out:             &full,
				CheckpointEvery: 24,
				OnCheckpoint: func(cp *core.Checkpoint) {
					cps = append(cps, cp)
					// Snapshot one checkpoint PAST the resume point: the
					// segments torn below must postdate the manifest the
					// resume rewinds to, as a real crash's in-flight
					// writes would.
					if len(cps) == 3 {
						// Snapshot the directory the crash will tear below.
						ents, err := os.ReadDir(fullDir)
						if err != nil {
							t.Fatal(err)
						}
						for _, e := range ents {
							data, err := os.ReadFile(filepath.Join(fullDir, e.Name()))
							if err != nil {
								t.Fatal(err)
							}
							if err := os.WriteFile(filepath.Join(crashDir, e.Name()), data, 0o644); err != nil {
								t.Fatal(err)
							}
						}
					}
				},
			}); err != nil {
				t.Fatal(err)
			}
			if len(cps) < 3 {
				t.Fatalf("expected 3 checkpoints, got %d", len(cps))
			}
			wantDigest := store.DirDigest(t, fullDir)
			cp := cps[1]
			blob, err := json.Marshal(cp)
			if err != nil {
				t.Fatal(err)
			}
			var back core.Checkpoint
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}

			// Tear the tail: truncate the newest live segment to half its
			// bytes and stage a stray .tmp, as a mid-write kill would.
			ents, err := os.ReadDir(crashDir)
			if err != nil {
				t.Fatal(err)
			}
			var segs []string
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".seg") {
					segs = append(segs, e.Name())
				}
			}
			if len(segs) == 0 {
				t.Fatal("crash snapshot holds no segments")
			}
			sort.Strings(segs)
			victim := filepath.Join(crashDir, segs[len(segs)-1])
			data, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(crashDir, "seg-L0-99999.seg.tmp"), []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}

			// Resume on a fresh faulted pipeline: Open must drop the torn
			// tail, ResetTo must rewind to the checkpoint manifest, and the
			// rerun must land on the uninterrupted run's exact bytes.
			p2 := FaultedPipeline(cfg, seed+1, DefaultSpec())
			st2, err := store.Open(crashDir, store.Options{Obs: p2.Obs})
			if err != nil {
				t.Fatal(err)
			}
			var rest bytes.Buffer
			if _, err := p2.ResumeCampaign(context.Background(), &back, core.CampaignOpts{Store: st2, Out: &rest}); err != nil {
				t.Fatal(err)
			}
			if got := store.DirDigest(t, crashDir); got != wantDigest {
				t.Error("recovered store directory diverges from uninterrupted run")
			}
			if want := full.Bytes()[back.OutOffset:]; !bytes.Equal(rest.Bytes(), want) {
				t.Errorf("resumed output %d bytes, want %d", rest.Len(), len(want))
			}
		})
	}
}
