package core

import (
	"bytes"
	"encoding/json"
	"math"
	"net/netip"
	"runtime/debug"
	"testing"
	"time"

	"ntpscan/internal/obs"
	"ntpscan/internal/rng"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

// Bits of FuzzCheckpointAppendJSON's shape argument: one per section
// or sub-section present, then how absent ones and the times are built.
const (
	cpShards   = 1 << iota // two shards
	cpArena                // each shard carries an arena
	cpSlots                // the arenas' slots and refs are filled
	cpResp                 // captured_resp
	cpCapLog               // cap_log
	cpRevisit              // scan.revisit
	cpBreaker              // scan.breaker
	cpPool                 // pool_scores; its first score is n's bits as a float64
	cpObs                  // obs
	cpStore                // store
	cpCluster              // cluster
	cpEmpty                // every absent slice or map is empty, not nil
	cpZeroTime             // the checkpoint's own time is time.Time{}: only the scan section's can fail
)

// fuzzCheckpoint builds a Checkpoint from fuzzed scalars: every address
// is ip (a zero Addr unless 4 or 16 bytes, zoned when zone is set) or
// a zero one, every string country, every time sec/nsec on a zone off
// seconds east or zero, every number a truncation of n.
func fuzzCheckpoint(shape uint16, ip []byte, zone, country string, sec, nsec int64, off int32, n int64, refs []byte) *Checkpoint {
	addr, _ := netip.AddrFromSlice(ip)
	if zone != "" {
		addr = addr.WithZone(zone)
	}
	when := time.Unix(sec, nsec).UTC()
	if off != 0 {
		when = when.In(time.FixedZone("", int(off)))
	}
	empty := shape&cpEmpty != 0
	cp := &Checkpoint{
		Seed: uint64(n), CollectShards: int(n >> 8), NextSlice: int(int8(n)), Time: when,
		Captures: n, Scan: zgrab.ScanState{NextSeq: n >> 4}, OutOffset: n >> 12,
	}
	if shape&cpZeroTime != 0 {
		cp.Time = time.Time{}
	}
	if empty {
		cp.Shards, cp.CapturedResp, cp.CapLog = []ShardSnap{}, []int{}, []store.CaptureRow{}
		cp.Scan.Revisit, cp.Scan.Breaker = []zgrab.RevisitEntry{}, []zgrab.BreakerEntryState{}
		cp.PoolScores, cp.Obs = PoolScoreMap{}, obs.Snapshot{}
	}
	if shape&cpShards != 0 {
		u := uint64(n)
		cp.Shards = []ShardSnap{{Vol: [4]uint64{u, 0, 1, math.MaxUint64}, Resp: [4]uint64{u >> 1}, Ports: [4]uint64{3: u}}, {}}
		for i := range cp.Shards {
			if shape&cpArena == 0 {
				continue
			}
			a := &world.ArenaState{Hand: int(n >> 32)}
			switch {
			case shape&cpSlots != 0:
				a.Slots, a.Refs = []int32{-1, int32(n), math.MinInt32}, refs
			case empty:
				a.Slots, a.Refs = []int32{}, []byte{}
			}
			cp.Shards[i].Arena = a
		}
	}
	if shape&cpResp != 0 {
		cp.CapturedResp = []int{0, int(n), -1}
	}
	if shape&cpCapLog != 0 {
		cp.CapLog = []store.CaptureRow{{Addr: addr, Vantage: country}, {Vantage: "DE"}}
	}
	if shape&cpRevisit != 0 {
		cp.Scan.Revisit = []zgrab.RevisitEntry{{Addr: addr, Last: when}, {Addr: netip.IPv6Unspecified(), Last: when}}
	}
	if shape&cpBreaker != 0 {
		cp.Scan.Breaker = []zgrab.BreakerEntryState{
			{Prefix: netip.PrefixFrom(addr, int(uint8(n))), State: int32(n), OpenedAt: when, WinDark: n, WinAlive: n >> 8},
			{}, // zero prefix, zero time, both windows omitted
		}
	}
	if shape&cpPool != 0 {
		cp.PoolScores = PoolScoreMap{country: math.Float64frombits(uint64(n)), "": 0.5}
	}
	if shape&cpObs != 0 {
		cp.Obs = obs.Snapshot{country: {n, -1}, "nil": nil}
	}
	if shape&cpStore != 0 {
		cp.Store = &store.Manifest{Version: 1, Segments: []store.SegmentInfo{{Name: country, Rows: n, CRC32: uint32(n)}}}
	}
	if shape&cpCluster != 0 {
		cp.Cluster = &ClusterState{Epochs: []uint64{uint64(n), 1}, Obs: obs.Snapshot{country: {n}}}
	}
	return cp
}

// FuzzCheckpointAppendJSON is the differential target behind the
// checkpoint encoder: for any Checkpoint, AppendJSON must append
// json.Marshal's bytes to what dst held, or refuse exactly when
// json.Marshal does and leave dst as it was. The committed corpus holds
// one file per encoding rule: zero / IPv4 / mapped / zoned addresses,
// HTML-sensitive and invalid-UTF-8 countries, odd zones and the years
// and zone hours RFC 3339 cannot express, a score encoding/json
// refuses, invalid and zero prefixes, and nil against empty slices,
// maps and arenas.
func FuzzCheckpointAppendJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint16, ip []byte, zone, country string, sec, nsec int64, off int32, n int64, refs []byte) {
		cp := fuzzCheckpoint(shape, ip, zone, country, sec, nsec, off, n, refs)
		prefix := []byte("prefix\n")
		want, wantErr := json.Marshal(cp)
		got, err := cp.AppendJSON(append([]byte(nil), prefix...))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
		}
		if !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
			t.Fatalf("AppendJSON differs from json.Marshal:\n got %q\nwant %s%s", got, prefix, want)
		}
	})
}

// allocCheckpoint is a checkpoint of a campaign's shape: 32 shards with
// 2 048-slot arenas, every section present, and a capture log and a
// revisit table of the given lengths over random IPv6 addresses.
func allocCheckpoint(caps, revisits int) *Checkpoint {
	r := rng.New(7)
	addr := func() netip.Addr {
		var a [16]byte
		for i := range a {
			a[i] = byte(r.Uint64())
		}
		return netip.AddrFrom16(a)
	}
	when := time.Date(2024, 7, 20, 13, 5, 0, 123456789, time.UTC)
	cp := fuzzCheckpoint(0xfff, nil, "", "DE", when.Unix(), 0, 0, 1<<20, []byte{0xa5})
	for i := range 32 {
		a := &world.ArenaState{Slots: make([]int32, 2048), Refs: make([]byte, 256), Hand: i}
		for j := range a.Slots {
			a.Slots[j] = int32(r.Uint64() >> 44)
		}
		cp.Shards = append(cp.Shards, ShardSnap{Vol: [4]uint64{r.Uint64()}, Arena: a})
	}
	for range caps {
		cp.CapLog = append(cp.CapLog, store.CaptureRow{Addr: addr(), Vantage: "BR"})
	}
	for range revisits {
		cp.Scan.Revisit = append(cp.Scan.Revisit, zgrab.RevisitEntry{Addr: addr(), Last: when})
	}
	return cp
}

// The encoder's allocation contract. With room in dst its count is
// the verbatim sections' alone, the same for a short capture log and
// revisit table as for long ones; from a nil dst it is one more — the
// buffer, sized once from the sections' lengths, never regrown. The
// collector is off while counting: a cycle that a megabyte buffer
// starts makes a few allocations of its own.
func TestCheckpointAppendJSONAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts at random: encoding/json's buffers, and so the verbatim sections' counts, do not repeat")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	room := make([]byte, 0, 4<<20)
	count := func(cp *Checkpoint, dst []byte) float64 {
		out, err := cp.AppendJSON(dst)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(cp); !bytes.Equal(out, want) {
			t.Fatal("AppendJSON differs from json.Marshal")
		}
		return testing.AllocsPerRun(10, func() { cp.AppendJSON(dst) })
	}
	short, long := allocCheckpoint(1, 1), allocCheckpoint(20000, 8000)
	base := count(short, room)
	if got := count(long, room); got != base {
		t.Errorf("with room in dst: %.0f allocations for 20 000 captures and 8 000 revisits, %.0f for one each", got, base)
	}
	for name, cp := range map[string]*Checkpoint{"short": short, "long": long} {
		if got := count(cp, nil); got != base+1 {
			t.Errorf("%s, from a nil dst: %.0f allocations, want %.0f (the verbatim sections' and one buffer)", name, got, base+1)
		}
	}
}
