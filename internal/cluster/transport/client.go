package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ntpscan/internal/cluster"
	"ntpscan/internal/obs"
)

// Typed client-side errors.
var (
	// ErrBadRequest is the server's bad_request answer come back typed:
	// it could not decode what we sent (or the arguments were out of
	// range, e.g. a shard index outside the decomposition).
	ErrBadRequest = errors.New("transport: server rejected request as malformed")
	// ErrUnavailable wraps the final transport-level failure after the
	// retry budget is spent: the endpoint never produced a response.
	ErrUnavailable = errors.New("transport: endpoint unavailable")
)

// Client speaks cluster.API to a served endpoint. Protocol errors come
// back typed (errors.Is against the cluster sentinels holds across the
// socket); transport-level failures — connection refused while a
// coordinator restarts, a dropped conn — are retried with doubling
// backoff before surfacing as ErrUnavailable.
//
// Retries re-send the identical request, which is safe: every
// cluster.API call is idempotent (Claim/Heartbeat re-grant, a
// duplicate SubmitSlice of a committed task would fence on the next
// slice's epoch state exactly as the first answer said, Release of
// released leases is a no-op).
type Client struct {
	base string
	node int
	hc   *http.Client

	// Retries is the number of re-sends after a transport-level failure
	// (default 4); Backoff the first retry delay, doubling per attempt
	// (default 50ms).
	Retries int
	Backoff time.Duration

	// sleep is swapped in tests to observe backoff without waiting.
	sleep func(time.Duration)

	// Obs carries the client-side transport families:
	//
	//	transport_client_calls_total{method}     API calls issued
	//	transport_client_errors_total{method}    calls that returned an error
	//	transport_client_attempts_total          HTTP sends, including retries
	//	transport_client_retries_total           re-sends after transport failure
	//	transport_client_net_failures_total      attempts with no HTTP response
	//	transport_client_bytes_out_total         framed request bytes sent
	//	transport_client_bytes_in_total          framed response bytes read
	//
	// Laws (checked by the invariant suite): attempts == calls +
	// retries; attempts == server requests + net failures; and framed
	// bytes out here == framed bytes in at the server.
	Obs *obs.Registry

	calls    *obs.CounterVec
	errs     *obs.CounterVec
	attempts *obs.Counter
	retries  *obs.Counter
	netFails *obs.Counter
	bytesOut *obs.Counter
	bytesIn  *obs.Counter
}

// NewClient builds a client for node against the endpoint's base URL
// (http://host:port). reg may be nil (a private registry is made); the
// cluster convention is one shared registry for all node clients so
// the wire laws aggregate.
func NewClient(base string, node int, reg *obs.Registry) *Client {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Client{
		base: base,
		node: node,
		// Keep-alives off: control calls are small and rare, and idle
		// pooled conns would hold goroutines past test teardown.
		hc:      &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		Retries: 4,
		Backoff: 50 * time.Millisecond,
		sleep:   time.Sleep,
		Obs:     reg,
		calls: reg.NewCounterVec("transport_client_calls_total",
			"wire control calls issued, by method", "method", methodNames),
		errs: reg.NewCounterVec("transport_client_errors_total",
			"wire control calls that returned an error, by method", "method", methodNames),
		attempts: reg.NewCounter("transport_client_attempts_total",
			"HTTP sends including retries"),
		retries: reg.NewCounter("transport_client_retries_total",
			"re-sends after a transport-level failure"),
		netFails: reg.NewCounter("transport_client_net_failures_total",
			"attempts that produced no HTTP response"),
		bytesOut: reg.NewCounter("transport_client_bytes_out_total",
			"framed request bytes sent"),
		bytesIn: reg.NewCounter("transport_client_bytes_in_total",
			"framed response bytes read"),
	}
	return c
}

// call does one API round-trip: frame the request, POST with retry on
// transport failure, unframe the response, map wire errors back to
// sentinels.
func (c *Client) call(method int, path string, req, resp any) error {
	c.calls.Inc(method)
	err := c.roundTrip(method, path, req, resp)
	if err != nil {
		c.errs.Inc(method)
	}
	return err
}

func (c *Client) roundTrip(method int, path string, req, resp any) error {
	frame, err := encodeRequest(req)
	if err != nil {
		return fmt.Errorf("transport: encode request: %w", err)
	}
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			c.sleep(c.Backoff << (attempt - 1))
		}
		c.attempts.Inc()
		hr, err := c.hc.Post(c.base+path, contentType, bytes.NewReader(frame))
		if err != nil {
			c.netFails.Inc()
			lastErr = err
			continue
		}
		c.bytesOut.Add(int64(len(frame)))
		raw, err := io.ReadAll(hr.Body)
		hr.Body.Close()
		if err != nil {
			c.netFails.Inc()
			lastErr = err
			continue
		}
		c.bytesIn.Add(int64(len(raw)))
		body, err := decodeResponseFrame(raw)
		if err != nil {
			// A mangled response frame is not retried: the server
			// answered, so re-sending would double-count its effect
			// accounting; surface the corruption instead.
			return fmt.Errorf("transport: response frame: %w", err)
		}
		if hr.StatusCode != http.StatusOK {
			var we wireError
			if err := json.Unmarshal(body, &we); err != nil {
				return fmt.Errorf("transport: undecodable error response (status %d): %w", hr.StatusCode, err)
			}
			return wireToError(we)
		}
		if err := json.Unmarshal(body, resp); err != nil {
			return fmt.Errorf("transport: response body: %w", err)
		}
		return nil
	}
	return fmt.Errorf("%w: %s after %d attempts: %v", ErrUnavailable, path, c.Retries+1, lastErr)
}

// wireToError maps a wire error code back to the typed error the
// in-process API would have returned.
func wireToError(we wireError) error {
	switch we.Code {
	case codeStaleEpoch:
		return fmt.Errorf("%w: %s", cluster.ErrStaleEpoch, we.Detail)
	case codeUnknownNode:
		return fmt.Errorf("%w: %s", cluster.ErrUnknownNode, we.Detail)
	case codeBadRequest:
		return fmt.Errorf("%w: %s", ErrBadRequest, we.Detail)
	case codeFrameTooLarge:
		return fmt.Errorf("%w: %s", cluster.ErrFrameTooLarge, we.Detail)
	}
	return fmt.Errorf("transport: server error (%s): %s", we.Code, we.Detail)
}

// Claim implements cluster.API.
func (c *Client) Claim(node, slice int) ([]cluster.Grant, error) {
	var resp grantsResponse
	if err := c.call(methodClaim, pathClaim, claimRequest{Node: node, Slice: slice}, &resp); err != nil {
		return nil, err
	}
	return fromWireGrants(resp.Grants), nil
}

// Heartbeat implements cluster.API.
func (c *Client) Heartbeat(node, slice int) ([]cluster.Grant, error) {
	var resp grantsResponse
	if err := c.call(methodHeartbeat, pathHeartbeat, claimRequest{Node: node, Slice: slice}, &resp); err != nil {
		return nil, err
	}
	return fromWireGrants(resp.Grants), nil
}

// SubmitSlice implements cluster.API.
func (c *Client) SubmitSlice(node, shard, slice int, epoch uint64) error {
	var resp okResponse
	return c.call(methodSubmit, pathSubmit,
		submitRequest{Node: node, Shard: shard, Slice: slice, Epoch: epoch}, &resp)
}

// Release implements cluster.API.
func (c *Client) Release(node int) error {
	var resp okResponse
	return c.call(methodRelease, pathRelease, releaseRequest{Node: node}, &resp)
}

// CloseIdle releases any idle transport state. With keep-alives off
// this is belt-and-braces, but tests call it so goroutine-leak checks
// never race conn teardown.
func (c *Client) CloseIdle() { c.hc.CloseIdleConnections() }

// Dial is the one-line client constructor for Coordinator.SetDial:
//
//	coord.SetDial(transport.Dial(ep.URL, reg))
func Dial(base string, reg *obs.Registry) func(node int) cluster.API {
	return func(node int) cluster.API { return NewClient(base, node, reg) }
}
