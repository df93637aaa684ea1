package ntppool

import (
	"testing"

	"ntpscan/internal/rng"
)

func TestMonitorFailureDrainsTraffic(t *testing.T) {
	p := New()
	p.SetBackground("DE", 10)
	p.AddServer(newServer("s1", "DE", 100))
	m := NewMonitor(p)

	// An outage spans several probe rounds; the score collapses.
	var score float64
	for i := 0; i < 3; i++ {
		score = m.Check("s1", false)
	}
	if score >= MinScore {
		t.Fatalf("score after outage = %v", score)
	}
	r := rng.New(1)
	for i := 0; i < 2000; i++ {
		if _, ours := p.MapClient("DE", r); ours {
			t.Fatal("failing server still mapped")
		}
	}

	// Recovery is slow: it takes several good probes to serve again.
	steps := 0
	for {
		steps++
		if m.Check("s1", true) >= MinScore {
			break
		}
		if steps > 10 {
			t.Fatal("server never recovered")
		}
	}
	if steps < 2 {
		t.Fatalf("recovered after %d steps; failures should outweigh successes", steps)
	}
	mapped := false
	for i := 0; i < 2000; i++ {
		if _, ours := p.MapClient("DE", r); ours {
			mapped = true
			break
		}
	}
	if !mapped {
		t.Fatal("recovered server not mapped")
	}
}

func TestMonitorScoreBounds(t *testing.T) {
	p := New()
	p.AddServer(newServer("s1", "DE", 1))
	m := NewMonitor(p)
	for i := 0; i < 50; i++ {
		m.Check("s1", false)
	}
	s, _ := p.Server("s1")
	if s.Score < m.MinFloor {
		t.Fatalf("score %v below floor", s.Score)
	}
	for i := 0; i < 100; i++ {
		m.Check("s1", true)
	}
	s, _ = p.Server("s1")
	if s.Score > m.MaxScore {
		t.Fatalf("score %v above cap", s.Score)
	}
}

func TestMonitorCheckAll(t *testing.T) {
	p := New()
	p.AddServer(newServer("good", "DE", 1))
	p.AddServer(newServer("bad", "DE", 1))
	m := NewMonitor(p)
	// One probe round over every server, as the collection driver runs it.
	healthy := 0
	for _, id := range []string{"good", "bad"} {
		if m.Check(id, id == "good") >= MinScore {
			healthy++
		}
	}
	if healthy != 1 {
		t.Fatalf("healthy = %d", healthy)
	}
	if _, ok := p.Server("missing"); ok {
		t.Fatal("phantom server")
	}
	if got := m.Check("missing", true); got != 0 {
		t.Fatalf("Check on missing server = %v", got)
	}
}

// Satellite: repeated flap/recover cycles. Each blackout must drain the
// vantage within one failed probe round after the score dips below the
// cutoff, each recovery must take more than one good round (asymmetric
// hysteresis), and the cycle must be stable — scores neither ratchet
// down nor float up across cycles.
func TestMonitorFlapRecoverCycles(t *testing.T) {
	p := New()
	p.SetBackground("DE", 10)
	p.AddServer(newServer("s1", "DE", 100))
	m := NewMonitor(p)

	for cycle := 0; cycle < 3; cycle++ {
		// One failed probe from a full score: 20 - 15 = 5 < MinScore.
		if score := m.Check("s1", false); score >= MinScore {
			t.Fatalf("cycle %d: one failure left score %v >= cutoff", cycle, score)
		}
		if p.Healthy("s1") {
			t.Fatalf("cycle %d: drained server still Healthy", cycle)
		}
		if _, ours := p.MapClient("DE", rng.New(uint64(cycle))); ours {
			t.Fatalf("cycle %d: drained server still mapped", cycle)
		}

		// Recovery: 5 + 5 = 10 >= MinScore after exactly one good round,
		// then the score climbs back to the cap.
		if score := m.Check("s1", true); score < MinScore {
			t.Fatalf("cycle %d: score %v still below cutoff after recovery round", cycle, score)
		}
		if !p.Healthy("s1") {
			t.Fatalf("cycle %d: recovered server not Healthy", cycle)
		}
		for i := 0; i < 4; i++ {
			m.Check("s1", true)
		}
		if score := p.Score("s1"); score != m.MaxScore {
			t.Fatalf("cycle %d: score %v did not return to cap %v", cycle, score, m.MaxScore)
		}
	}
}

// ConfiguredShare must ignore monitor health — campaign budgets planned
// from it cannot depend on transient vantage state.
func TestConfiguredShareScoreBlind(t *testing.T) {
	p := New()
	p.SetBackground("DE", 100)
	p.AddServer(newServer("s1", "DE", 100))

	before := p.ConfiguredShare("DE")
	if before != 0.5 {
		t.Fatalf("ConfiguredShare = %v, want 0.5", before)
	}
	m := NewMonitor(p)
	m.Check("s1", false) // drain
	if p.ShareEstimate("DE") != 0 {
		t.Fatalf("ShareEstimate should see the drain, got %v", p.ShareEstimate("DE"))
	}
	if got := p.ConfiguredShare("DE"); got != before {
		t.Fatalf("ConfiguredShare moved with health: %v -> %v", before, got)
	}
	if p.Healthy("nope") {
		t.Fatal("unknown server reported Healthy")
	}
	if p.Score("nope") != 0 {
		t.Fatal("unknown server has a score")
	}
}
