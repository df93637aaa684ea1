package chaos

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ntpscan/internal/cluster"
	"ntpscan/internal/core"
	"ntpscan/internal/netsim"
	"ntpscan/internal/store"
)

// Node-loss chaos: the cluster campaign under the canonical node-loss
// schedule (crashes, a partition, a lagging heartbeat — NodeLossSpec)
// plus one pinned partition that provably produces zombie submissions.
// The claim under test is the tentpole's: node loss is invisible in the
// output. Byte-identical JSONL, identical Summary, identical Captures —
// and the cluster's own books balance.

// pinPartition adds a deterministic partition of node 2 over slices
// [40, 52): the node is mid-campaign, holds leases, and its grant view
// outlives the first missed heartbeat — so fenced (zombie) submissions
// are guaranteed, not left to where the drawn windows happen to land.
func pinPartition(p *core.Pipeline) {
	from, _ := p.SliceWindow(40)
	until, _ := p.SliceWindow(52)
	p.Cfg.Faults.AddNode(netsim.NodeFault{
		Kind: netsim.NodePartition, Node: 2, From: from, Until: until,
	})
}

func TestClusterNodeLossDeterministic(t *testing.T) {
	NoGoroutineLeaks(t)
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Oracle: the same data-plane faults, single process, no
			// cluster. Node faults never touch the fabric, so this is
			// the exact output a lossless cluster must reproduce.
			var want bytes.Buffer
			base := faultedPipeline(chaosConfig(seed), seed+1, DefaultSpec())
			bd, err := base.RunCampaign(context.Background(), core.CampaignOpts{Out: &want})
			if err != nil {
				t.Fatal(err)
			}

			var got bytes.Buffer
			p := faultedPipeline(chaosConfig(seed), seed+1, NodeLossSpec(3, 1))
			pinPartition(p)
			cd, coord, err := cluster.Run(context.Background(), p, cluster.Config{Nodes: 3},
				core.CampaignOpts{Out: &got})
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("node-loss cluster JSONL diverges from single-process run (%d vs %d bytes)",
					got.Len(), want.Len())
			}
			if d1, d2 := digest(t, bd), digest(t, cd); d1 != d2 {
				t.Errorf("dataset digest %x, want %x", d2, d1)
			}
			if p.Captures != base.Captures {
				t.Errorf("Captures = %d, want %d", p.Captures, base.Captures)
			}
			if g, w := fmt.Sprintf("%+v", p.Summary.Stats()), fmt.Sprintf("%+v", base.Summary.Stats()); g != w {
				t.Errorf("Summary diverges:\n got %s\nwant %s", g, w)
			}

			claimed, completed, fenced, lost := coord.TaskCounts()
			t.Logf("tasks: claimed %d = completed %d + fenced %d + lost %d",
				claimed, completed, fenced, lost)
			if fenced == 0 {
				t.Error("kill run produced no epoch rejections — zombies were not provably fenced")
			}
			if claimed != completed+fenced+lost {
				t.Errorf("task conservation violated: claimed %d != completed %d + fenced %d + lost %d",
					claimed, completed, fenced, lost)
			}
			if inflight := coord.Obs.Snapshot()["cluster_tasks_inflight"]; len(inflight) != 1 || inflight[0] != 0 {
				t.Errorf("cluster_tasks_inflight = %v at campaign end, want [0]", inflight)
			}
		})
	}
}

// The store directory is part of the byte-identity contract too: a
// store-backed cluster campaign under node loss must leave the exact
// directory bytes (segments, manifest) of the single-process run.
func TestClusterStoreDirIdenticalAcrossNodes(t *testing.T) {
	NoGoroutineLeaks(t)
	seed := chaosSeeds(t)[0]

	runDir := func(nodes int) string {
		dir := t.TempDir()
		var spec Spec
		if nodes > 1 {
			spec = NodeLossSpec(nodes, 1)
		} else {
			spec = DefaultSpec()
		}
		p := faultedPipeline(chaosConfig(seed), seed+1, spec)
		st, err := store.Open(dir, store.Options{Obs: p.Obs})
		if err != nil {
			t.Fatal(err)
		}
		if nodes > 1 {
			pinPartition(p)
			_, coord, err := cluster.Run(context.Background(), p,
				cluster.Config{Nodes: nodes}, core.CampaignOpts{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if coord.EpochRejections() == 0 {
				t.Errorf("nodes=%d: no epoch rejections — zombie fencing untested", nodes)
			}
		} else if _, err := p.RunCampaign(context.Background(), core.CampaignOpts{Store: st}); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	want := store.DirDigest(t, runDir(1))
	for _, nodes := range []int{3, 8} {
		if got := store.DirDigest(t, runDir(nodes)); got != want {
			t.Errorf("nodes=%d: store directory diverges from single-process run", nodes)
		}
	}
}

// The EXPERIMENTS.md ladder: 0, 1 and 2 node kills against the same
// three-node campaign. Convergence-to-clean is exact by construction —
// the bytes must not move — while the recovery work (expired leases,
// lost tasks, fenced submissions) grows with the kill count.
func TestClusterKillLadderConvergesExactly(t *testing.T) {
	NoGoroutineLeaks(t)
	seed := chaosSeeds(t)[0]

	var want bytes.Buffer
	base := faultedPipeline(chaosConfig(seed), seed+1, DefaultSpec())
	if _, err := base.RunCampaign(context.Background(), core.CampaignOpts{Out: &want}); err != nil {
		t.Fatal(err)
	}

	for _, kills := range []int{0, 1, 2} {
		spec := DefaultSpec()
		spec.ClusterNodes = 3
		spec.NodeKills = kills
		spec.KillLen = NodeLossSpec(3, kills).KillLen

		var got bytes.Buffer
		p := faultedPipeline(chaosConfig(seed), seed+1, spec)
		_, coord, err := cluster.Run(context.Background(), p, cluster.Config{Nodes: 3},
			core.CampaignOpts{Out: &got})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("kills=%d: output diverges from clean single-process run (%d vs %d bytes)",
				kills, got.Len(), want.Len())
		}
		claimed, completed, fenced, lost := coord.TaskCounts()
		snap := coord.Obs.Snapshot()
		expired := snap["cluster_leases_expired_total"]
		t.Logf("kills=%d: claimed %d, completed %d, fenced %d, lost %d, leases expired %v",
			kills, claimed, completed, fenced, lost, expired)
		if kills == 0 && (fenced != 0 || lost != 0) {
			t.Errorf("kills=0: healthy cluster fenced %d / lost %d", fenced, lost)
		}
	}
}
