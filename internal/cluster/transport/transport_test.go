package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ntpscan/internal/chaos"
	"ntpscan/internal/cluster"
)

// scriptAPI is a deterministic cluster.API: fixed grants, a fencing
// epoch of 7, and fully scripted error details — the target for
// round-trip and golden-fixture tests.
type scriptAPI struct {
	mu    sync.Mutex
	calls []string
}

func (a *scriptAPI) record(s string) {
	a.mu.Lock()
	a.calls = append(a.calls, s)
	a.mu.Unlock()
}

func (a *scriptAPI) snapshot() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.calls...)
}

func (a *scriptAPI) Claim(node, slice int) ([]cluster.Grant, error) {
	a.record(fmt.Sprintf("claim %d %d", node, slice))
	if node < 0 || node >= 3 {
		return nil, fmt.Errorf("%w: node %d of 3", cluster.ErrUnknownNode, node)
	}
	return []cluster.Grant{
		{Shard: 2, Epoch: 7, ExpiresSlice: slice + 2},
		{Shard: 5, Epoch: 7, ExpiresSlice: slice + 2},
	}, nil
}

func (a *scriptAPI) Heartbeat(node, slice int) ([]cluster.Grant, error) {
	a.record(fmt.Sprintf("heartbeat %d %d", node, slice))
	if node < 0 || node >= 3 {
		return nil, fmt.Errorf("%w: node %d of 3", cluster.ErrUnknownNode, node)
	}
	return []cluster.Grant{{Shard: 2, Epoch: 7, ExpiresSlice: slice + 2}}, nil
}

func (a *scriptAPI) SubmitSlice(node, shard, slice int, epoch uint64) error {
	a.record(fmt.Sprintf("submit %d %d %d %d", node, shard, slice, epoch))
	if shard < 0 || shard >= 8 {
		return fmt.Errorf("cluster: shard %d out of range", shard)
	}
	if epoch != 7 {
		return fmt.Errorf("%w: shard %d slice %d epoch %d from node %d (current epoch 7, holder 0)",
			cluster.ErrStaleEpoch, shard, slice, epoch, node)
	}
	return nil
}

func (a *scriptAPI) Release(node int) error {
	a.record(fmt.Sprintf("release %d", node))
	if node < 0 || node >= 3 {
		return fmt.Errorf("%w: node %d of 3", cluster.ErrUnknownNode, node)
	}
	return nil
}

// serveScript starts a loopback endpoint over a scriptAPI and returns
// a client for node 0. Everything is torn down at test cleanup, inside
// the goroutine-leak check.
func serveScript(t *testing.T) (*scriptAPI, *Client) {
	t.Helper()
	chaos.NoGoroutineLeaks(t)
	api := &scriptAPI{}
	ep, err := ListenLoopback(NewServer(api, nil))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(ep.URL, 0, nil)
	t.Cleanup(func() {
		c.CloseIdle()
		if err := ep.Close(); err != nil {
			t.Errorf("endpoint close: %v", err)
		}
	})
	return api, c
}

func TestRoundTripsEveryMethod(t *testing.T) {
	api, c := serveScript(t)

	grants, err := c.Claim(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.Grant{{Shard: 2, Epoch: 7, ExpiresSlice: 12}, {Shard: 5, Epoch: 7, ExpiresSlice: 12}}
	if !reflect.DeepEqual(grants, want) {
		t.Errorf("Claim grants = %+v, want %+v", grants, want)
	}

	grants, err = c.Heartbeat(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grants, []cluster.Grant{{Shard: 2, Epoch: 7, ExpiresSlice: 13}}) {
		t.Errorf("Heartbeat grants = %+v", grants)
	}

	if err := c.SubmitSlice(0, 2, 11, 7); err != nil {
		t.Errorf("SubmitSlice(current epoch) = %v, want nil", err)
	}
	if err := c.Release(0); err != nil {
		t.Errorf("Release = %v, want nil", err)
	}

	wantCalls := []string{"claim 0 10", "heartbeat 0 11", "submit 0 2 11 7", "release 0"}
	if got := api.snapshot(); !reflect.DeepEqual(got, wantCalls) {
		t.Errorf("server saw %v, want %v", got, wantCalls)
	}
}

// Protocol errors must come back typed: errors.Is against the cluster
// sentinels holds on the client side of the socket.
func TestTypedErrorsSurviveWire(t *testing.T) {
	_, c := serveScript(t)

	if err := c.SubmitSlice(0, 2, 11, 3); !errors.Is(err, cluster.ErrStaleEpoch) {
		t.Errorf("stale submit error = %v, want ErrStaleEpoch", err)
	}
	if _, err := c.Claim(9, 0); !errors.Is(err, cluster.ErrUnknownNode) {
		t.Errorf("unknown-node claim error = %v, want ErrUnknownNode", err)
	}
	if _, err := c.Heartbeat(9, 0); !errors.Is(err, cluster.ErrUnknownNode) {
		t.Errorf("unknown-node heartbeat error = %v, want ErrUnknownNode", err)
	}
	if err := c.SubmitSlice(0, 99, 0, 7); !errors.Is(err, ErrBadRequest) {
		t.Errorf("out-of-range submit error = %v, want ErrBadRequest", err)
	}
}

// rawPost sends an arbitrary body to one method path and returns the
// status and decoded wire error.
func rawPost(t *testing.T, c *Client, body []byte) (int, wireError) {
	t.Helper()
	hr, err := http.Post(c.base+pathClaim, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := decodeResponseFrame(raw)
	if err != nil {
		t.Fatalf("error response is not a valid frame: %v", err)
	}
	var we wireError
	if err := json.Unmarshal(payload, &we); err != nil {
		t.Fatal(err)
	}
	return hr.StatusCode, we
}

func TestServerRejectsBadFrames(t *testing.T) {
	_, c := serveScript(t)

	// Oversized declared length: rejected before the body is read.
	huge := make([]byte, 12)
	copy(huge, wireMagic[:])
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0x7f
	if status, we := rawPost(t, c, huge); status != http.StatusRequestEntityTooLarge || we.Code != codeFrameTooLarge {
		t.Errorf("oversized frame: status %d code %q, want 413 %q", status, we.Code, codeFrameTooLarge)
	}

	// CRC corruption.
	good, err := encodeRequest(claimRequest{Node: 0, Slice: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	if status, we := rawPost(t, c, bad); status != http.StatusBadRequest || we.Code != codeBadRequest {
		t.Errorf("corrupt frame: status %d code %q, want 400 %q", status, we.Code, codeBadRequest)
	}

	// Truncation.
	if status, we := rawPost(t, c, good[:len(good)-3]); status != http.StatusBadRequest || we.Code != codeBadRequest {
		t.Errorf("truncated frame: status %d code %q, want 400 %q", status, we.Code, codeBadRequest)
	}

	// Wrong magic (a checkpoint frame on the wire port).
	wrong := append([]byte(nil), good...)
	wrong[3] = 'c'
	if status, we := rawPost(t, c, wrong); status != http.StatusBadRequest || we.Code != codeBadRequest {
		t.Errorf("wrong magic: status %d code %q, want 400 %q", status, we.Code, codeBadRequest)
	}
}

// A client whose endpoint vanished retries with doubling backoff and
// reconnects once something is listening again — the coordinator
// restart path.
func TestClientReconnectsAfterRestart(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	api := &scriptAPI{}
	ep, err := ListenLoopback(NewServer(api, nil))
	if err != nil {
		t.Fatal(err)
	}
	addr := ep.URL[len("http://"):]

	c := NewClient(ep.URL, 0, nil)
	c.Retries = 40
	c.Backoff = time.Millisecond
	defer c.CloseIdle()

	if _, err := c.Claim(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}

	// The backoff hook stands in for the wait: it records each delay
	// and, from the third retry on, brings a replacement server up on
	// the same address — the client is mid-retry by construction.
	var slept []time.Duration
	var ep2 *Endpoint
	c.sleep = func(d time.Duration) {
		slept = append(slept, d)
		if len(slept) >= 3 && ep2 == nil {
			ep2, _ = ListenAddr(NewServer(api, nil), addr)
		}
	}
	defer func() {
		if ep2 != nil {
			ep2.Close()
		}
	}()

	if _, err := c.Claim(0, 2); err != nil {
		t.Fatalf("claim after restart: %v", err)
	}
	if c.retries.Value() == 0 {
		t.Error("reconnect consumed no retries — the restart window was never exercised")
	}
	for i := 1; i < len(slept); i++ {
		if slept[i] != slept[i-1]*2 {
			t.Errorf("backoff not doubling: %v", slept)
			break
		}
	}
	if got := c.attempts.Value(); got != c.calls.Sum()+c.retries.Value() {
		t.Errorf("attempts %d != calls %d + retries %d", got, c.calls.Sum(), c.retries.Value())
	}
}

// With nothing ever listening the retry budget drains and the call
// surfaces ErrUnavailable, with the attempt accounting exact.
func TestClientUnavailableAfterBudget(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	// Grab a loopback port and free it so nothing answers there.
	ep, err := ListenLoopback(NewServer(&scriptAPI{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	url := ep.URL
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}

	c := NewClient(url, 0, nil)
	c.Retries = 2
	c.Backoff = time.Millisecond
	defer c.CloseIdle()
	if _, err := c.Claim(0, 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("claim against dead endpoint = %v, want ErrUnavailable", err)
	}
	if got := c.netFails.Value(); got != 3 {
		t.Errorf("net failures = %d, want 3 (1 call + 2 retries)", got)
	}
	if got := c.errs.Sum(); got != 1 {
		t.Errorf("client errors = %d, want 1", got)
	}
}

// wireToError's full code table, including codes this client never
// provokes over a healthy server (frame_too_large on a response-side
// reject, unknown future codes).
func TestWireErrorCodeTable(t *testing.T) {
	cases := []struct {
		code string
		want error
	}{
		{codeStaleEpoch, cluster.ErrStaleEpoch},
		{codeUnknownNode, cluster.ErrUnknownNode},
		{codeBadRequest, ErrBadRequest},
		{codeFrameTooLarge, cluster.ErrFrameTooLarge},
	}
	for _, tc := range cases {
		if err := wireToError(wireError{Code: tc.code, Detail: "d"}); !errors.Is(err, tc.want) {
			t.Errorf("code %q maps to %v, want %v", tc.code, err, tc.want)
		}
	}
	// A code minted by a future server version degrades to a plain
	// error carrying both code and detail, never to a false sentinel.
	err := wireToError(wireError{Code: "new_fangled", Detail: "later"})
	for _, sentinel := range []error{cluster.ErrStaleEpoch, cluster.ErrUnknownNode, ErrBadRequest, cluster.ErrFrameTooLarge} {
		if errors.Is(err, sentinel) {
			t.Errorf("unknown code matched sentinel %v", sentinel)
		}
	}
	if !strings.Contains(err.Error(), "new_fangled") || !strings.Contains(err.Error(), "later") {
		t.Errorf("unknown-code error %q drops the code or detail", err)
	}
}

func TestClientNodeAndRelease(t *testing.T) {
	api, c := serveScript(t)
	if c.node != 0 {
		t.Errorf("node = %d, want 0", c.node)
	}
	if err := c.Release(0); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := c.Release(9); !errors.Is(err, cluster.ErrUnknownNode) {
		t.Errorf("unknown-node release = %v, want ErrUnknownNode", err)
	}
	var releases int
	for _, call := range api.snapshot() {
		if strings.HasPrefix(call, "release ") {
			releases++
		}
	}
	if releases != 2 {
		t.Errorf("server saw %d release calls, want 2", releases)
	}
}
