package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"

	"ntpscan/internal/cluster"
	"ntpscan/internal/obs"
)

// Server serves a cluster.API over HTTP with framed JSON bodies. It is
// an http.Handler; mount it on any listener (the cluster convention is
// a loopback socket — ListenLoopback).
type Server struct {
	mux *http.ServeMux

	// Obs carries the server-side transport families:
	//
	//	transport_server_requests_total{method}  requests that produced a response
	//	transport_server_errors_total{code}      non-200 responses by wire code
	//	transport_server_bytes_in_total          framed request bytes read
	//	transport_server_bytes_out_total         framed response bytes written
	//
	// With the client families these close the wire conservation laws:
	// every client attempt that reached the server is a request, and
	// framed bytes leaving one side arrive whole at the other.
	Obs *obs.Registry

	requests *obs.CounterVec
	errs     *obs.CounterVec
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
}

// NewServer wraps api. reg may be nil (a private registry is made);
// passing a shared registry lets a daemon expose transport and fabric
// families together.
func NewServer(api cluster.API, reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		mux: http.NewServeMux(),
		Obs: reg,
		requests: reg.NewCounterVec("transport_server_requests_total",
			"wire control requests that produced a response, by method", "method", methodNames),
		errs: reg.NewCounterVec("transport_server_errors_total",
			"non-200 wire responses, by error code", "code",
			[]string{codeStaleEpoch, codeUnknownNode, codeBadRequest, codeFrameTooLarge, codeInternal}),
		bytesIn: reg.NewCounter("transport_server_bytes_in_total",
			"framed request bytes read off the wire"),
		bytesOut: reg.NewCounter("transport_server_bytes_out_total",
			"framed response bytes written to the wire"),
	}
	grants := func(g []cluster.Grant, err error) (any, error) {
		return grantsResponse{Grants: toWireGrants(g)}, err
	}
	ok := func(err error) (any, error) { return okResponse{OK: true}, err }
	s.mux.HandleFunc("POST "+pathClaim, handle(s, methodClaim, func(q claimRequest) (any, error) {
		return grants(api.Claim(q.Node, q.Slice))
	}))
	s.mux.HandleFunc("POST "+pathHeartbeat, handle(s, methodHeartbeat, func(q claimRequest) (any, error) {
		return grants(api.Heartbeat(q.Node, q.Slice))
	}))
	s.mux.HandleFunc("POST "+pathSubmit, handle(s, methodSubmit, func(q submitRequest) (any, error) {
		return ok(api.SubmitSlice(q.Node, q.Shard, q.Slice, q.Epoch))
	}))
	s.mux.HandleFunc("POST "+pathRelease, handle(s, methodRelease, func(q releaseRequest) (any, error) {
		return ok(api.Release(q.Node))
	}))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// codeIndex maps a wire error code to its dense metric index (the
// registration order in NewServer).
func codeIndex(code string) int {
	switch code {
	case codeStaleEpoch:
		return 0
	case codeUnknownNode:
		return 1
	case codeBadRequest:
		return 2
	case codeFrameTooLarge:
		return 3
	}
	return 4
}

// readBody decodes one framed request body into req. A decode failure
// writes the error response itself and returns false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, method int, req any) bool {
	body, err := cluster.DecodeFrame(r.Body, wireMagic, MaxFrameBody)
	if err != nil {
		switch {
		case errors.Is(err, cluster.ErrFrameTooLarge):
			s.writeError(w, method, http.StatusRequestEntityTooLarge, codeFrameTooLarge, err.Error())
		default:
			s.writeError(w, method, http.StatusBadRequest, codeBadRequest, err.Error())
		}
		return false
	}
	s.bytesIn.Add(int64(frameLen(len(body))))
	if err := json.Unmarshal(body, req); err != nil {
		s.writeError(w, method, http.StatusBadRequest, codeBadRequest, "request body: "+err.Error())
		return false
	}
	return true
}

// writeFramed sends one framed JSON response.
func (s *Server) writeFramed(w http.ResponseWriter, method, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		// Marshal of our own response types cannot fail; keep the
		// accounting honest anyway.
		status, body = http.StatusInternalServerError,
			[]byte(fmt.Sprintf(`{"code":%q,"detail":"encode response"}`, codeInternal))
	}
	frame := cluster.AppendFrame(nil, wireMagic, body)
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	w.Write(frame)
	s.requests.Inc(method)
	s.bytesOut.Add(int64(len(frame)))
}

func (s *Server) writeError(w http.ResponseWriter, method, status int, code, detail string) {
	s.errs.Inc(codeIndex(code))
	s.writeFramed(w, method, status, wireError{Code: code, Detail: detail})
}

// apiError maps a cluster.API error to its wire (status, code).
func apiError(err error) (int, string) {
	switch {
	case errors.Is(err, cluster.ErrStaleEpoch):
		return http.StatusConflict, codeStaleEpoch
	case errors.Is(err, cluster.ErrUnknownNode):
		return http.StatusNotFound, codeUnknownNode
	case strings.Contains(err.Error(), "out of range"):
		return http.StatusBadRequest, codeBadRequest
	}
	return http.StatusInternalServerError, codeInternal
}

// handle serves one wire method: decode a framed Req, make the API
// call, frame its reply or its error.
func handle[Req any](s *Server, method int, call func(Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !s.readBody(w, r, method, &req) {
			return
		}
		resp, err := call(req)
		if err != nil {
			status, code := apiError(err)
			s.writeError(w, method, status, code, err.Error())
			return
		}
		s.writeFramed(w, method, http.StatusOK, resp)
	}
}

// frameLen is the on-wire size of a frame with an n-byte body: magic
// (4) + length (4) + body + crc (4). Client and server count framed
// bytes with the same formula, which is what makes the cross-registry
// bytes law exact.
func frameLen(n int) int { return n + 12 }

// encodeRequest frames a JSON payload for the wire; shared with the
// client and the golden-fixture tests.
func encodeRequest(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return cluster.AppendFrame(nil, wireMagic, body), nil
}

// decodeResponseFrame unwraps one framed response payload.
func decodeResponseFrame(b []byte) ([]byte, error) {
	return cluster.DecodeFrame(bytes.NewReader(b), wireMagic, MaxFrameBody)
}

// Endpoint is a served transport bound to a socket.
type Endpoint struct {
	// URL is the base URL clients dial (http://127.0.0.1:port).
	URL string

	srv *http.Server
	l   net.Listener
}

// ListenLoopback serves s on an OS-assigned loopback port
// (127.0.0.1:0) and returns the live endpoint. The caller owns the
// endpoint and must Close it.
func ListenLoopback(s *Server) (*Endpoint, error) {
	return ListenAddr(s, "127.0.0.1:0")
}

// ListenAddr serves s on the given TCP address.
func ListenAddr(s *Server, addr string) (*Endpoint, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	e := &Endpoint{
		URL: "http://" + l.Addr().String(),
		srv: &http.Server{Handler: s},
		l:   l,
	}
	go e.srv.Serve(l)
	return e, nil
}

// Close shuts the endpoint down and waits for in-flight handlers, so
// tests (and daemons) leave no serving goroutines behind.
func (e *Endpoint) Close() error {
	err := e.srv.Shutdown(context.Background())
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}
