package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"ntpscan/internal/chaos"
)

// TestTelescopeReportRepeats is the smoke test and the repeat gate in
// one: the §5 report, with every campaign's sources listed, is the same
// bytes on every run and names both planted actors' scan networks.
func TestTelescopeReportRepeats(t *testing.T) {
	out := chaos.SameEveryRun(t, func() string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-seed", "7", "-v"}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
		}
		return stdout.String()
	})
	for _, want := range []string{"queries sent", "scatter 0", "campaign 2610:148::/32 sources:", "campaign 2a01:7e00::/32 sources:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report has no %q:\n%s", want, out)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// A report that cannot be written is the run's failure.
func TestTelescopeReportsWriteError(t *testing.T) {
	var stderr bytes.Buffer
	pr, pw := io.Pipe()
	pr.Close() // the reader has gone away
	code := run([]string{"-seed", "7"}, pw, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "write report: io: read/write on closed pipe") {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
}
