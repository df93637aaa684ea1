package main

import (
	"crypto/sha256"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The sandbox this benchmark runs in is a shared host whose speed moves
// between regimes that last minutes: the same code on the same seed
// committed 285 000 results/s in six consecutive runs and 375 000 in
// the next four. No run length the driver's budget allows averages that
// out, and it is wider than any regression bound. So every run times a
// fixed kernel beside its workload — standard library only, nothing of
// the program under test, the same work on every commit — and reports
// its time-based end-to-end metrics in reference-host time: measured
// time × (calibRefMs ÷ the run's median kernel time). A slow spell
// stretches kernel and workload alike and cancels; a change to the
// program moves the workload only. Blocks of sixteen campaigns that
// spread 13 % raw spread 4 to 5 % calibrated (README, "Host speed").

// calibRefMs is the kernel's time on the reference host: a round number
// near this sandbox at its slowest (it runs the kernel in 45 to 75 ms).
// It only fixes the unit; comparisons between commits do not depend on
// it.
const calibRefMs = 75.0

// calibRecord is the kernel's allocation- and encoding-heavy half: the
// campaign's own character (many small results, sorted, JSON-encoded),
// which a hash loop alone does not share.
type calibRecord struct {
	Addr   string            `json:"addr"`
	Module string            `json:"module"`
	Port   int               `json:"port"`
	Status string            `json:"status"`
	Tags   map[string]string `json:"tags,omitempty"`
	Sub    *calibRecord      `json:"sub,omitempty"`
}

// The kernel's fixed amounts of work, per goroutine.
const (
	calibHashRounds   = 24
	calibEncodeRounds = 10
)

// calibWork is one goroutine's share of the kernel: hashing, map
// updates, small allocations, a sort and JSON encoding.
func calibWork(hashRounds, encodeRounds int) {
	buf := make([]byte, 1<<20)
	m := map[int]int{}
	for i := 0; i < hashRounds; i++ {
		sha256.Sum256(buf)
		for j := 0; j < 20000; j++ {
			m[(i*7919+j*31)%50000] += j
		}
	}
	enc := json.NewEncoder(io.Discard)
	for i := 0; i < encodeRounds; i++ {
		recs := make([]*calibRecord, 0, 2000)
		for j := 0; j < 2000; j++ {
			r := &calibRecord{Addr: "2001:db8:" + strconv.Itoa(i) + "::" + strconv.Itoa((j*7919)%2000), Module: "http", Port: 80 + j%7, Status: "timeout"}
			if j%8 == 0 {
				r.Sub = &calibRecord{Addr: r.Addr, Status: "success", Tags: map[string]string{"server": "nginx", "title": "router"}}
			}
			recs = append(recs, r)
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].Addr < recs[b].Addr })
		for _, r := range recs {
			enc.Encode(r) // to io.Discard: cannot fail
		}
	}
}

// calibrate runs the kernel on as many goroutines as the workload keeps
// busy and files the elapsed milliseconds. Workloads call it between
// iterations, so its samples bracket theirs.
func (b *base) calibrate() {
	hash, encode := calibHashRounds, calibEncodeRounds
	if b.e.quick {
		hash, encode = 2, 1
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < b.e.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibWork(hash, encode)
		}()
	}
	wg.Wait()
	t1 := time.Now()
	b.e.rec.add("calibration", 0, t0, t1)
	b.add("calibration_ms", ms(t1.Sub(t0)))
}

// hostFactor converts the run's measured time to reference-host time.
func (b *base) hostFactor() float64 {
	k := b.series["calibration_ms"]
	if len(k) == 0 {
		return 1
	}
	return calibRefMs / median(k)
}

// toReferenceHost rescales the time-based metrics of m in place:
// durations by f, rates by 1/f. Counts, sizes and shares stay as
// measured.
func toReferenceHost(m map[string]float64, f float64) {
	for _, spec := range endToEnd {
		v, ok := m[spec.Name]
		if !ok {
			continue
		}
		switch spec.Unit {
		case "s", "ms":
			m[spec.Name] = v * f
		case "1/s":
			m[spec.Name] = v / f
		}
	}
}
