// Package examples holds no code of its own: this test builds the four
// example programs and runs each as a process, so an example that stops
// compiling, exits non-zero or loses its finding fails tier-1.
// examples/realsockets is the only proof outside package tests that the
// protocol servers speak over kernel TCP and UDP.
package examples

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for name, want := range map[string]string{
		"quickstart":    "% of NTP-found hosts securely configured vs ",
		"iot-audit":     "broker access control (NTP-sourced)",
		"covert-detect": "no scatter: every probe hit a query-leaked address",
		"realsockets":   `SSH: SSH-2.0-OpenSSH_9.2p1 Raspbian-10+deb12u2 (OS Raspbian)`,
	} {
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if !strings.Contains(string(out), want) {
				t.Errorf("output has no %q:\n%s", want, out)
			}
		})
	}
}
