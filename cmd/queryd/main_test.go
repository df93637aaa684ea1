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
	dir := t.TempDir()
	seedStore(t, dir)
	if code := run(context.Background(), []string{"-store", dir, "-listen", "256.256.256.256:0"}, &out, &errb); code != 1 {
		t.Fatalf("bad listen addr: exit %d", code)
	}
}

// tables fetches the five /v1/tables/* bodies of a serving daemon,
// each without its stats envelope (which carries a wall-clock time).
func tables(t *testing.T, st status) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range []string{"modules", "table2", "vantages", "prefixes", "slices"} {
		resp, err := http.Get("http://" + st.Listening + "/v1/tables/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Data json.RawMessage `json:"data"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %v", name, resp.StatusCode, err)
		}
		out[name] = string(env.Data)
	}
	return out
}

// Offline mode only reads the store: queryd -store opens it with
// store.OpenReadOnly, which checks every manifest entry and repairs
// nothing. Damage — a footer that rots after sealing (its whole-file
// checksum recomputed, so no crash explains it), one flipped body byte
// in the middle segment, a garbled MANIFEST.json, a directory that is
// not there — stops the daemon before it listens: exit 1, no status
// line, an error naming the segment or file, and the directory byte for
// byte as it was (a missing one still missing). A listed segment a
// crash left only under its .retired name is read there: the daemon
// serves the intact store's tables and renames nothing back.
func TestQuerydRefusesACorruptFooter(t *testing.T) {
	intact := t.TempDir()
	seedStore(t, intact)
	st, shutdown := startQueryd(t, []string{"-store", intact, "-listen", "127.0.0.1:0"})
	want := tables(t, st)
	shutdown()
	blob, err := os.ReadFile(filepath.Join(intact, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man store.Manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	last, middle := man.Segments[len(man.Segments)-1].Name, man.Segments[len(man.Segments)/2].Name

	// edit rewrites one file of dir.
	edit := func(t *testing.T, dir, name string, fn func([]byte) []byte) {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, fn(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string) (path string)
		want   string // in stderr; "" means queryd must serve
	}{
		{"footer-rot", func(t *testing.T, dir string) string {
			m := store.Manifest{Version: man.Version, Segments: append([]store.SegmentInfo(nil), man.Segments...)}
			seg := &m.Segments[len(m.Segments)-1]
			edit(t, dir, seg.Name, func(b []byte) []byte {
				b[len(b)-6] ^= 0xff // inside the footer checksum
				seg.CRC32 = crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
				return b
			})
			blob, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			edit(t, dir, "MANIFEST.json", func([]byte) []byte { return blob })
			return dir
		}, "store: segment " + last},
		{"body-byte", func(t *testing.T, dir string) string {
			edit(t, dir, middle, func(b []byte) []byte { b[20] ^= 0xff; return b }) // inside the first block
			return dir
		}, "store: segment " + middle},
		{"garbled-manifest", func(t *testing.T, dir string) string {
			edit(t, dir, "MANIFEST.json", func(b []byte) []byte { b[0] = '#'; return b })
			return dir
		}, "MANIFEST.json"},
		{"missing-dir", func(t *testing.T, dir string) string {
			return filepath.Join(dir, "nodir")
		}, "nodir"},
		{"retired-only", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, middle)
			if err := os.Rename(path, path+".retired"); err != nil {
				t.Fatal(err)
			}
			return dir
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(intact)); err != nil {
				t.Fatal(err)
			}
			path := tc.damage(t, dir)
			var digest string
			if path == dir {
				digest = store.DirDigest(t, dir)
			}
			args := []string{"-store", path, "-listen", "127.0.0.1:0"}
			if tc.want == "" {
				st, shutdown := startQueryd(t, args)
				got := tables(t, st)
				shutdown()
				for name := range want {
					if got[name] != want[name] {
						t.Errorf("/v1/tables/%s = %s, intact store %s", name, got[name], want[name])
					}
				}
			} else {
				// A daemon that serves anyway is stopped, and fails below.
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				var out, errb bytes.Buffer
				code := run(ctx, args, &out, &errb)
				if code != 1 || out.Len() != 0 || !strings.Contains(errb.String(), tc.want) {
					t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 naming %s", code, out.String(), errb.String(), tc.want)
				}
			}
			if path != dir {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("queryd created %s (%v)", path, err)
				}
			} else if store.DirDigest(t, dir) != digest {
				t.Error("queryd changed the store directory")
			}
		})
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
