package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// repeatCheck runs the whole set twice on the same code and holds the
// two sets to the benchmark's own bounds: if identical code disagrees
// with itself by more than a bound, that bound cannot tell a regression
// from noise on this host.
//
// Each set runs in a process of its own, like the driver's runs. In one
// process the second set finds the heap already grown and the pages
// already faulted in, and reads 10 to 20 % faster than the first.
func repeatCheck(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var sets [2]*resultSet
	for i := range sets {
		dir := filepath.Join(o.out, fmt.Sprintf("repeat-%d", i+1))
		trace := "0"
		if o.trace {
			trace = "1"
		}
		fmt.Fprintf(stdout, "---- set %d ----\n", i+1)
		cmd := exec.Command(self, "-all", "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", trace, "-out", dir)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: set %d: %v\n", i+1, err)
			return 1
		}
		if sets[i], err = loadSet(reportPath(dir, o.workloads, o.trace)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !compareSets(sets[0], sets[1], stdout) {
		return 1
	}
	return 0
}

func loadSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := new(resultSet)
	return set, json.Unmarshal(raw, set)
}

// compareSets prints, per workload and end-to-end metric, both medians,
// how much worse the second is than the first, and the bound. It
// reports whether every pair agrees within its bound in either
// direction; failed_share, whose bound is "any increase", must be zero
// on both sides.
func compareSets(a, b *resultSet, w io.Writer) bool {
	fmt.Fprintf(w, "\n---- repeat check: set 2 against set 1 ----\n")
	fmt.Fprintf(w, "%-18s %-22s %16s %16s %9s %8s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	ok := true
	for i, ra := range a.Results {
		rb := b.Results[i]
		for _, m := range endToEnd {
			va, has := ra.EndToEnd[m.Name]
			if !has {
				continue
			}
			vb := rb.EndToEnd[m.Name]
			diff := relWorse(m.Better, va, vb)
			verdict := ""
			if m.Bound == 0 {
				if va != 0 || vb != 0 {
					verdict, ok = "  FAILED OPERATIONS", false
				}
			} else if diff > m.Bound || diff < -m.Bound {
				verdict, ok = "  OUTSIDE BOUND", false
			}
			fmt.Fprintf(w, "%-18s %-22s %16.4f %16.4f %+8.1f%% %7.0f%%%s\n", ra.Workload, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	if ok {
		fmt.Fprintf(w, "repeat check passed: every pair within its bound\n")
	} else {
		fmt.Fprintf(w, "repeat check FAILED\n")
	}
	return ok
}
