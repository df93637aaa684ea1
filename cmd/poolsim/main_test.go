package main

import (
	"bytes"
	"io"
	"net/netip"
	"strings"
	"testing"

	"ntpscan/internal/chaos"
)

var tinyWorld = []string{"-seed", "7", "-device-scale", "1e-3", "-addr-scale", "1e-6", "-as-scale", "0.02"}

// TestPoolsimStreamsDistinctAddresses is the smoke test and the repeat
// gate in one: the address stream is the same bytes on every run, every
// line parses, no address repeats, and the summary on stderr counts the
// stream.
func TestPoolsimStreamsDistinctAddresses(t *testing.T) {
	var stderr bytes.Buffer
	out := chaos.SameEveryRun(t, func() string {
		var stdout bytes.Buffer
		stderr.Reset()
		if code := run(tinyWorld, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
		}
		return stdout.String()
	})
	seen := map[netip.Addr]bool{}
	for _, line := range strings.Fields(out) {
		a, err := netip.ParseAddr(line)
		if err != nil || seen[a] {
			t.Fatalf("line %q: parse error %v, seen before %v", line, err, seen[a])
		}
		seen[a] = true
	}
	if len(seen) == 0 || !strings.Contains(stderr.String(), "distinct addresses") {
		t.Fatalf("%d addresses; stderr: %s", len(seen), stderr.String())
	}

	var stdout bytes.Buffer
	if code := run(append([]string{"-summary-only"}, tinyWorld...), &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Errorf("-summary-only: exit %d, %d bytes on stdout", code, stdout.Len())
	}
	for _, args := range [][]string{{"-no-such-flag"}, {"-summary-only", "-as-scale", "-1"}} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("poolsim %v: exit %d, want 2", args, code)
		}
	}
}

// An address stream that cannot be written is the run's failure.
func TestPoolsimReportsWriteError(t *testing.T) {
	var stderr bytes.Buffer
	pr, pw := io.Pipe()
	pr.Close() // the reader has gone away
	code := run(tinyWorld, pw, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "write addresses: io: read/write on closed pipe") {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
}
