package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ntpscan/internal/chaos"
	"ntpscan/internal/cluster"
	"ntpscan/internal/cluster/transport"
	"ntpscan/internal/core"
	"ntpscan/internal/obs"
)

// startDaemon runs the daemon's run() in a goroutine on an OS-assigned
// port and returns the parsed status line plus a stop function that
// cancels it and reports the exit code.
func startDaemon(t *testing.T, args ...string) (status, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, args, pw, &stderr)
		pw.Close()
	}()
	var st status
	if err := json.NewDecoder(pr).Decode(&st); err != nil {
		cancel()
		t.Fatalf("decode status line: %v (stderr: %s)", err, stderr.String())
	}
	var once sync.Once
	var code int
	stop := func() int {
		once.Do(func() {
			cancel()
			code = <-exit
			if s := stderr.String(); s != "" {
				t.Logf("clusterd stderr: %s", s)
			}
		})
		return code
	}
	t.Cleanup(func() { stop() })
	return st, stop
}

// The daemon end to end: three campaign replicas — the exact code path
// cmd/experiments -cluster runs — against one clusterd fabric, output
// byte-identical to the single-process campaign, clean shutdown on
// cancel.
func TestClusterdServesCampaignNodes(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	ctx := context.Background()
	const nodes = 3
	seed := chaos.Seeds()[0]

	var want bytes.Buffer
	base := core.NewPipeline(chaos.Config(seed))
	if _, err := base.RunCampaign(ctx, core.CampaignOpts{Out: &want}); err != nil {
		t.Fatal(err)
	}

	st, stop := startDaemon(t,
		"-listen", "127.0.0.1:0",
		"-shards", fmt.Sprint(base.Cfg.CollectShards),
		"-nodes", fmt.Sprint(nodes),
	)
	if st.Shards != base.Cfg.CollectShards || st.Nodes != nodes {
		t.Fatalf("status = %+v, want shards %d nodes %d", st, base.Cfg.CollectShards, nodes)
	}
	baseURL := "http://" + st.Listening

	clientReg := obs.NewRegistry()
	outs := make([]bytes.Buffer, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			api := transport.NewClient(baseURL, n, clientReg)
			defer api.CloseIdle()
			p := core.NewPipeline(chaos.Config(seed))
			_, _, errs[n] = cluster.RunNode(ctx, p, api, n,
				cluster.Config{Nodes: nodes}, core.CampaignOpts{Out: &outs[n]})
		}()
	}
	wg.Wait()
	for n := 0; n < nodes; n++ {
		if errs[n] != nil {
			t.Fatalf("node %d: %v", n, errs[n])
		}
		if !bytes.Equal(outs[n].Bytes(), want.Bytes()) {
			t.Errorf("node %d output via clusterd diverges from single-process run (%d vs %d bytes)",
				n, outs[n].Len(), want.Len())
		}
	}

	// The ops surface: liveness and the merged fabric+wire metric
	// families on the same mux.
	hr, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d, want 200", hr.StatusCode)
	}
	mr, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"cluster_tasks_completed_total",
		"transport_server_requests_total",
	} {
		if !strings.Contains(string(metrics), family) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	if code := stop(); code != 0 {
		t.Errorf("clusterd exit code = %d, want 0", code)
	}
}

func TestClusterdRejectsBadFlags(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	var out, errOut bytes.Buffer
	if code := run(context.Background(), nil, &out, &errOut); code != 2 {
		t.Errorf("run with no -shards = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-shards") {
		t.Errorf("missing-shards error %q does not name the flag", errOut.String())
	}
	if code := run(context.Background(), []string{"-shards", "4", "-listen", "127.0.0.1:port"},
		&out, &errOut); code != 1 {
		t.Errorf("run with unparseable listen address = %d, want 1", code)
	}
}

// A client that sends half a request line and goes quiet is
// disconnected at readHeaderTimeout, and the daemon still shuts down
// with nothing left running.
func TestClusterdDropsStalledClient(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	st, stop := startDaemon(t, "-shards", "4", "-nodes", "2")
	conn, err := net.Dial("tcp", st.Listening)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/cluster/claim HT"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second))
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client still connected %v past the header timeout: %v (read %q)", 10*time.Second, err, reply)
	}
	if code := stop(); code != 0 {
		t.Fatalf("exit %d", code)
	}
}
