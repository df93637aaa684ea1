package main

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ntpscan/internal/chaos"
	"ntpscan/internal/store"
	"ntpscan/internal/zgrab"
)

func seedStore(t *testing.T, dir string) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mods := []string{"http", "https", "ssh"}
	for sl := 0; sl < 3; sl++ {
		var caps []store.CaptureRow
		var results []*zgrab.Result
		for i := 0; i < 50; i++ {
			var b [16]byte
			b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
			b[15] = byte(sl*50 + i)
			addr := netip.AddrFrom16(b)
			caps = append(caps, store.CaptureRow{Addr: addr, Vantage: "DE"})
			results = append(results, &zgrab.Result{
				IP: addr, Module: mods[i%len(mods)], Port: 443,
				Time: time.Unix(0, int64(i)).UTC(), Status: zgrab.StatusSuccess,
				Seq: int64(sl*1000 + i),
			})
		}
		if err := st.AppendSlice(sl, caps, results); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
}

// startQueryd runs run() against args, waits for the status line, and
// returns the parsed status plus a shutdown func that asserts exit 0.
func startQueryd(t *testing.T, args []string) (status, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan int, 1)
	var stderr bytes.Buffer
	go func() {
		code := run(ctx, args, pw, &stderr)
		pw.Close()
		done <- code
	}()
	var st status
	if err := json.NewDecoder(pr).Decode(&st); err != nil {
		cancel()
		t.Fatalf("no status line: %v (stderr: %s)", err, stderr.String())
	}
	return st, func() {
		cancel()
		// A daemon that does not shut down hangs here; the test
		// binary's timeout reports it.
		if code := <-done; code != 0 {
			t.Errorf("queryd exit %d (stderr: %s)", code, stderr.String())
		}
	}
}

func TestQuerydOffline(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	st, shutdown := startQueryd(t, []string{"-store", dir, "-listen", "127.0.0.1:0"})
	defer shutdown()

	if st.Mode != "offline" || st.Captures != 150 || st.Results != 150 {
		t.Fatalf("status = %+v", st)
	}
	base := "http://" + st.Listening

	resp, err := http.Get(base + "/v1/tables/modules")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"module":"http"`)) {
		t.Fatalf("modules: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/v1/query?kind=results&module=ssh&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"stats"`)) {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("queryd_requests_total")) {
		t.Fatalf("metrics missing queryd families:\n%s", body)
	}
}

func TestQuerydDemoServesDuringCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("demo campaign in -short")
	}
	st, shutdown := startQueryd(t, []string{"-demo-seed", "7", "-listen", "127.0.0.1:0"})
	defer shutdown()
	if st.Mode != "live" {
		t.Fatalf("status = %+v", st)
	}
	base := "http://" + st.Listening
	// Poll the modules table while the campaign runs, back to back (a
	// request is the only wait): it must always answer, and eventually
	// carry rows as slices drain.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/tables/modules")
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Data []struct {
				Module  string `json:"module"`
				Results int64  `json:"results"`
			} `json:"data"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("modules: %d %v", resp.StatusCode, err)
		}
		filled := false
		for _, row := range env.Data {
			if row.Results > 0 {
				filled = true
			}
		}
		if filled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("modules table never filled during demo campaign")
		}
	}
}

func TestQuerydArgErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), nil, &out, &errb); code != 2 {
		t.Fatalf("no -store: exit %d", code)
	}
	if !strings.Contains(errb.String(), "-store is required") {
		t.Fatalf("stderr: %s", errb.String())
	}
	for _, args := range [][]string{{"-bogus"}, {"-demo-seed", "7", "-workers", "0"}} {
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Fatalf("queryd %v: exit %d, want 2", args, code)
		}
	}
	if code := run(context.Background(), []string{"-store", t.TempDir(), "-listen", "256.256.256.256:0"}, &out, &errb); code != 1 {
		t.Fatalf("bad listen addr: exit %d", code)
	}
}

// A sealed segment whose footer rotted (its manifest checksum
// recomputed over the rotten bytes, so it is no torn write) stops the
// daemon at store.Open: exit 1 naming the segment, before it listens.
func TestQuerydRefusesACorruptFooter(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	mpath := filepath.Join(dir, "MANIFEST.json")
	blob, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var man store.Manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	seg := &man.Segments[len(man.Segments)-1]
	path := filepath.Join(dir, seg.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff // inside the footer checksum
	seg.CRC32 = crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
	if blob, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-store", dir, "-listen", "127.0.0.1:0"}, &out, &errb)
	if code != 1 || out.Len() != 0 || !strings.Contains(errb.String(), "store: segment "+seg.Name) {
		t.Fatalf("rotten segment %s: exit %d, stdout %q, stderr %q; want exit 1 naming it", seg.Name, code, out.String(), errb.String())
	}
}

// A client that sends half a request line and goes quiet is
// disconnected at readHeaderTimeout — it does not hold a connection and
// its goroutine for as long as it likes — and the daemon still shuts
// down with nothing left running.
func TestQuerydDropsStalledClient(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	dir := t.TempDir()
	seedStore(t, dir)
	st, shutdown := startQueryd(t, []string{"-store", dir, "-listen", "127.0.0.1:0"})
	defer shutdown()

	conn, err := net.Dial("tcp", st.Listening)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/tables/modules HT"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second))
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client still connected %v past the header timeout: %v (read %q)", 10*time.Second, err, reply)
	}
}
