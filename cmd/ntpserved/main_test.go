package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ntpscan/internal/ntp"
)

// lines hands each Write (the daemon writes one line per call) to the
// test. The buffer holds every line one exchange produces — a listen
// report, a capture, a diagnostic — so the daemon never blocks on it.
type lines chan string

func (l lines) Write(p []byte) (int, error) {
	l <- string(p)
	return len(p), nil
}

// TestNtpservedAnswersAndLogsOneCapture is the smoke test over a kernel
// socket: the daemon reports the loopback port the OS picked, answers
// one SNTP request with the configured stratum and reference ID, logs
// that client as one JSON line, and exits 0 when its context ends.
func TestNtpservedAnswersAndLogsOneCapture(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout, stderr := make(lines, 4), make(lines, 4)
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-stratum", "3", "-refid", "PPS"}, stdout, stderr)
	}()
	var report string
	select {
	case report = <-stderr:
	case code := <-done:
		t.Fatalf("exit %d before serving", code)
	}
	fields := strings.Fields(report) // ntpserved: answering SNTP on ADDR (stratum N)
	if len(fields) < 5 || !strings.HasPrefix(report, "ntpserved: answering SNTP on 127.0.0.1:") {
		t.Fatalf("listen report %q", report)
	}
	server, err := net.ResolveUDPAddr("udp", fields[4])
	if err != nil {
		t.Fatal(err)
	}

	client, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := ntp.QueryConn(client, server, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stratum != 3 || res.RefID != [4]byte{'P', 'P', 'S'} {
		t.Errorf("answer carries stratum %d refid %q, want 3 and PPS", res.Stratum, res.RefID)
	}

	var line captureLine
	if err := json.Unmarshal([]byte(<-stdout), &line); err != nil {
		t.Fatal(err)
	}
	if want := client.LocalAddr().(*net.UDPAddr); line.Addr != "127.0.0.1" || int(line.Port) != want.Port || line.Time.IsZero() {
		t.Errorf("capture line %+v, want the client %v", line, want)
	}

	cancel()
	if code := <-done; code != 0 {
		t.Errorf("exit %d after cancel", code)
	}
}

// -stratum and -refid are fixed-width wire fields: a value that does
// not fit is a usage error, not a silent truncation.
func TestNtpservedRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-stratum", "300"},
		{"-stratum", "-1"},
		{"-refid", "GPSDO"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 || stderr.Len() == 0 {
			t.Errorf("ntpserved %v: exit %d, stderr %q; want exit 2 and a message", args, code, stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-listen", "256.256.256.256:0"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad listen address: exit %d, want 1", code)
	}
}

// A capture log that cannot be written ends the daemon with exit 1
// instead of serving on with captures lost.
func TestNtpservedReportsWriteError(t *testing.T) {
	stderr := make(lines, 4)
	pr, pw := io.Pipe()
	pr.Close() // the reader has gone away
	done := make(chan int, 1)
	go func() {
		done <- run(context.Background(), []string{"-listen", "127.0.0.1:0"}, pw, stderr)
	}()
	server, err := net.ResolveUDPAddr("udp", strings.Fields(<-stderr)[4])
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.WriteTo(ntp.NewClientPacket(time.Now()).Encode(), server); err != nil {
		t.Fatal(err)
	}
	if code, msg := <-done, <-stderr; code != 1 || !strings.Contains(msg, "write capture: io: read/write on closed pipe") {
		t.Fatalf("exit %d, stderr: %s", code, msg)
	}
}
