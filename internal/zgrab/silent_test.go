package zgrab

import (
	"bytes"
	"context"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"ntpscan/internal/netsim"
	"ntpscan/internal/obs"
)

// TestSilentRowsMatchModules holds silentInto to the modules it stands
// in for: every module's Scan of an address with no host, on a fabric
// where an idle sniffer keeps the address from reading silent so the
// probe really runs, returns the row silentInto writes, field for field.
// A port override moves both alike.
func TestSilentRowsMatchModules(t *testing.T) {
	clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	f := netsim.New(netsim.Config{Clock: clock, DialTimeout: 10 * time.Millisecond})
	dark := netip.MustParseAddr("2001:db8:da4c::9")
	sniffed := 0
	stop := f.Sniff(netip.MustParsePrefix("2001:db8::/32"), func(netsim.PacketInfo) { sniffed++ })
	env := &Env{
		Net: SimNet(f), Source: scanSrc, Clock: clock, Timeout: time.Second, Logical: true,
		PortOverrides: map[string]uint16{"mqtts": 18883},
	}
	defer env.closeSockets()
	for i, m := range AllModules() {
		got := m.Scan(context.Background(), env, dark)
		if sniffed != i+1 {
			t.Fatalf("%s: the sniffer saw %d probes after %d modules; the probe did not run", m.Name(), sniffed, i+1)
		}
		var want Result
		silentInto(env, m, dark, &want)
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s: probed row %+v, silent row %+v", m.Name(), *got, want)
		}
	}
	stop()
	if !f.Silent(dark) {
		t.Fatal("the address does not read silent once the sniffer is gone")
	}
}

// TestSilentScanMatchesProbedScan runs one schedule through two
// scanners, one on a plain fabric, where dark targets take the silent
// path, and one beside an idle sniffer, where every probe runs. Rows,
// Seq, schedule stamps, breaker sheds and the books must come out the
// same.
func TestSilentScanMatchesProbedScan(t *testing.T) {
	live := netip.MustParseAddr("2001:db8:1::d")
	host := fullHost()
	targets := []netip.Addr{live}
	for i := range 12 {
		targets = append(targets, netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0xda, 0x4c, 15: byte(i + 1)}))
	}
	run := func(sniff bool) ([]Result, string) {
		clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
		f := netsim.New(netsim.Config{Clock: clock, DialTimeout: 10 * time.Millisecond})
		f.Register(live, host)
		if sniff {
			f.Sniff(netip.MustParsePrefix("2001:db8::/32"), func(netsim.PacketInfo) {})
		}
		reg := obs.NewRegistry()
		perWorker := make([][]Result, 2)
		s := NewScanner(Config{
			Fabric: f, Source: scanSrc, Workers: 2, Obs: reg,
			Limiter:            NewTokenBucketAt(1e6, 1e6, clock),
			InterProtocolDelay: 10 * time.Second,
			Breaker:            &BreakerConfig{Threshold: 4, Cooldown: time.Hour},
			OnResultWorker:     func(w int, r *Result) { perWorker[w] = append(perWorker[w], *r) },
		})
		if got := s.silent(targets[1]); got == sniff {
			t.Fatalf("sniff=%v: a dark target reads silent=%v", sniff, got)
		}
		s.Start(context.Background())
		for range 4 {
			s.SubmitBatch(targets)
			s.Drain()
			clock.Advance(revisitAfter)
		}
		s.ScanNow(context.Background(), targets[2])
		s.Close()
		rows := slices.Concat(perWorker...)
		slices.SortFunc(rows, func(a, b Result) int { return int(a.Seq - b.Seq) })
		var books bytes.Buffer
		if err := reg.WritePrometheus(&books); err != nil {
			t.Fatal(err)
		}
		return rows, books.String()
	}
	silentRows, silentBooks := run(false)
	probedRows, probedBooks := run(true)
	if len(silentRows) != len(probedRows) {
		t.Fatalf("%d rows on the silent path, %d probed", len(silentRows), len(probedRows))
	}
	statuses := map[Status]int{}
	for i := range silentRows {
		if !reflect.DeepEqual(silentRows[i], probedRows[i]) {
			t.Fatalf("row %d: silent path %+v, probed %+v", i, silentRows[i], probedRows[i])
		}
		statuses[silentRows[i].Status]++
	}
	for _, st := range []Status{StatusSuccess, StatusTimeout, StatusBreakerOpen} {
		if statuses[st] == 0 {
			t.Fatalf("no %v row in the schedule %v", st, statuses)
		}
	}
	if silentBooks != probedBooks {
		t.Fatalf("books differ\nsilent path:\n%s\nprobed:\n%s", silentBooks, probedBooks)
	}
}
