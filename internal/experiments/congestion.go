package experiments

// The congestion ladder: the same collection campaign run behind
// access links of increasing utilization, so the effect of queueing on
// capture yield is measurable in one table. Every rung is a fresh
// pipeline with an identical world; only the link plan's utilization
// moves. The plan uses a Default link — every flow in the campaign
// crosses it — which makes the rungs comparable without choosing
// prefixes. Plans are built inline (not via internal/chaos, whose
// hooks link the testing package).

import (
	"fmt"
	"strings"
	"time"

	"ntpscan/internal/netsim/link"
)

// congestionRung is one utilization level of the ladder.
type congestionRung struct {
	Name string
	Util float64 // <0 means no link plan at all (clean fabric)
}

// CongestionLadder runs the collection campaign across utilization
// rungs and renders the capture/drop table. The ladder is
// deterministic: same seed, same bytes.
func CongestionLadder(seed uint64) string {
	rungs := []congestionRung{
		{"clean", -1},
		{"u=0.50", 0.50},
		{"u=0.90", 0.90},
		{"u=0.99", 0.99},
	}

	var b strings.Builder
	b.WriteString("== Congestion ladder (collection under queued links) ==\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %10s %10s\n",
		"rung", "captures", "enqueued", "delivered", "tail-drop", "late", "yield")

	var clean int
	for _, rung := range rungs {
		opts := Options{
			Seed:          seed,
			DeviceScale:   1e-3,
			AddrScale:     2e-6,
			Workers:       8,
			CaptureBudget: 2500,
			LinkPlan:      ladderPlan(seed, rung.Util),
		}
		s := CollectOnly(opts)
		lm := link.NewMetrics(s.P.Obs)
		captures := s.P.Captures
		if rung.Util < 0 {
			clean = captures
		}
		yield := "-"
		if clean > 0 {
			yield = fmt.Sprintf("%.3f", float64(captures)/float64(clean))
		}
		fmt.Fprintf(&b, "%-8s %10d %10d %10d %10d %10d %10s\n",
			rung.Name, captures, lm.Enqueued.Value(), lm.Delivered.Value(),
			lm.DroppedTail.Value(), lm.Late.Value(), yield)
	}
	b.WriteString("\nyield = captures relative to the clean rung; the ladder is\n")
	b.WriteString("deterministic (pure-hash queues on the logical clock).\n\n")
	return b.String()
}

// ladderPlan builds the rung's link plan: one Default link that every
// flow crosses, sized like a loaded access circuit. The time grid is
// left zero — newPipeline pins it to the campaign's slices. util
// < 0 returns nil (clean fabric, no plan installed).
func ladderPlan(seed uint64, util float64) *link.Plan {
	if util < 0 {
		return nil
	}
	return &link.Plan{
		Seed: seed ^ 0x11ad,
		Default: &link.Params{
			QueuePackets: 16,
			BytesPerSec:  64 << 20,
			PropDelay:    15 * time.Microsecond,
			Utilization:  util,
			JitterMax:    10 * time.Microsecond,
		},
	}
}
