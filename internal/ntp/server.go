package ntp

import (
	"bytes"
	"net"
	"net/netip"
	"sync"
	"time"

	"ntpscan/internal/obs"
)

// ServerMetrics is a shared bundle of request counters. Several Server
// instances may carry the same bundle — the collection pipeline clones
// one vantage server per shard, and all clones account into the same
// books — so the totals read as per-vantage-fleet, not per-instance.
// All updates are lone atomic adds: the capture fast path stays
// zero-alloc with metrics enabled.
type ServerMetrics struct {
	Requests    *obs.Counter // datagrams that reached an NTP server
	Answered    *obs.Counter // requests answered with time
	RateLimited *obs.Counter // requests answered with a kiss-of-death
}

// NewServerMetrics registers the NTP server families on r.
func NewServerMetrics(r *obs.Registry) *ServerMetrics {
	return &ServerMetrics{
		Requests:    r.NewCounter("ntp_requests_total", "datagrams that reached an NTP capture server"),
		Answered:    r.NewCounter("ntp_answered_total", "NTP requests answered with time"),
		RateLimited: r.NewCounter("ntp_rate_limited_total", "NTP requests answered with a kiss-of-death"),
	}
}

// CaptureFunc receives the source address and arrival time of every valid
// client request the server answers. This is the paper's core
// instrumentation point: a pool server sees the addresses of everyone who
// synchronises against it.
type CaptureFunc func(client netip.AddrPort, at time.Time)

// ServerConfig configures a capture server.
type ServerConfig struct {
	// Stratum reported in responses. Pool servers are typically 2.
	Stratum uint8
	// ReferenceID is the 4-byte refid ("GPS\0", upstream v4 addr, ...).
	ReferenceID [4]byte
	// Now supplies timestamps; defaults to time.Now. The mass
	// simulation injects the experiment's logical clock.
	Now func() time.Time
	// Capture, if non-nil, is invoked for every answered request.
	Capture CaptureFunc
	// MinInterval enables per-client rate limiting: a client address
	// querying again within the interval receives a kiss-of-death
	// (stratum 0, refid RATE) instead of time, as abusive clients do
	// from real pool servers. Zero disables limiting.
	MinInterval time.Duration
	// Metrics, if non-nil, accounts requests into a shared
	// observability bundle (see ServerMetrics).
	Metrics *ServerMetrics
}

// rateTableMax bounds the rate limiter's memory; beyond it the oldest
// half is evicted wholesale (abusers re-tracked on their next query).
const rateTableMax = 1 << 16

// Server answers SNTP requests and captures client addresses. It is
// transport-agnostic: Respond computes a response for one datagram, and
// the Handle/Serve adapters bind it to netsim and net sockets.
type Server struct {
	cfg ServerConfig

	rateMu   sync.Mutex
	lastSeen map[netip.Addr]time.Time
}

// NewServer returns a server with the given configuration.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Stratum == 0 {
		cfg.Stratum = 2
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{cfg: cfg}
	if cfg.MinInterval > 0 {
		s.lastSeen = make(map[netip.Addr]time.Time)
	}
	return s
}

// overRate records the client and reports whether it queried too soon.
func (s *Server) overRate(client netip.Addr, now time.Time) bool {
	if s.lastSeen == nil {
		return false
	}
	s.rateMu.Lock()
	defer s.rateMu.Unlock()
	last, seen := s.lastSeen[client]
	if len(s.lastSeen) >= rateTableMax {
		// Crude wholesale eviction keeps memory bounded without
		// per-entry timers.
		s.lastSeen = make(map[netip.Addr]time.Time, rateTableMax/2)
	}
	s.lastSeen[client] = now
	return seen && now.Sub(last) < s.cfg.MinInterval
}

// kissOfDeath builds the stratum-0 RATE response.
func kissOfDeath(req *Packet, now time.Time) Packet {
	return Packet{
		Leap:         LeapUnsynchronized,
		Version:      req.Version,
		Mode:         ModeServer,
		Stratum:      0,
		ReferenceID:  [4]byte{'R', 'A', 'T', 'E'},
		OriginTime:   req.TransmitTime,
		ReceiveTime:  ToTime64(now),
		TransmitTime: ToTime64(now),
	}
}

// Respond processes one request datagram from the given client and
// returns the response payload, or nil if the datagram is not an
// answerable NTP request. Capture fires only for answered requests,
// mirroring the paper's server-side logging.
func (s *Server) Respond(client netip.AddrPort, payload []byte) []byte {
	resp, ok := s.RespondAppend(client, payload, make([]byte, 0, PacketSize))
	if !ok {
		return nil
	}
	return resp
}

// RespondAppend is Respond with caller-owned output: the response is
// appended onto dst (typically a reused per-shard scratch buffer) and
// returned with ok true, or dst is returned untouched with ok false
// when the datagram is not answerable. The entire request/response
// cycle runs without heap allocation — the collection fast path calls
// this once per capture event.
func (s *Server) RespondAppend(client netip.AddrPort, payload, dst []byte) (out []byte, ok bool) {
	if m := s.cfg.Metrics; m != nil {
		m.Requests.Inc()
	}
	var req Packet
	if err := DecodeInto(&req, payload); err != nil {
		return dst, false
	}
	// Answer client requests; symmetric-active peers also receive a
	// reply in real deployments but are irrelevant for address
	// sourcing, so we keep the strict SNTP server behaviour.
	if req.Mode != ModeClient {
		return dst, false
	}
	now := s.cfg.Now()
	if s.overRate(client.Addr(), now) {
		if m := s.cfg.Metrics; m != nil {
			m.RateLimited.Inc()
		}
		kod := kissOfDeath(&req, now)
		return kod.AppendEncode(dst), true
	}
	resp := Packet{
		Leap:          LeapNone,
		Version:       req.Version,
		Mode:          ModeServer,
		Stratum:       s.cfg.Stratum,
		Poll:          req.Poll,
		Precision:     -20,
		ReferenceID:   s.cfg.ReferenceID,
		ReferenceTime: ToTime64(now.Add(-17 * time.Second)),
		OriginTime:    req.TransmitTime,
		ReceiveTime:   ToTime64(now),
		TransmitTime:  ToTime64(now),
	}
	if m := s.cfg.Metrics; m != nil {
		m.Answered.Inc()
	}
	if s.cfg.Capture != nil {
		s.cfg.Capture(client, now)
	}
	return resp.AppendEncode(dst), true
}

// RespondBatch processes a slab of back-to-back 48-byte request
// datagrams — reqs[i*PacketSize:(i+1)*PacketSize] from clients[i] —
// appending each response onto dst in request order and returning the
// extended slice plus the number of requests answered. Per-event
// semantics are identical to calling RespondAppend in a loop: metrics,
// rate limiting, and the Capture hook fire once per request, in order.
// What the batch buys is template reuse: consecutive identical requests
// at a frozen clock (the collection pipeline's steady state — every
// simulated client in a slice sends the same mode-3 header) are decoded
// once, and their responses are stride-copied instead of re-encoded.
// When oks is non-nil it must have len(clients) entries and records
// which requests produced a response.
func (s *Server) RespondBatch(clients []netip.AddrPort, reqs, dst []byte, oks []bool) (out []byte, answered int) {
	n := len(reqs) / PacketSize
	var (
		req     Packet
		reqOK   bool
		prevRaw []byte
		prevOff = -1 // dst offset of the previous plain response
		prevNow time.Time
		now     time.Time
	)
	for i := 0; i < n; i++ {
		raw := reqs[i*PacketSize : (i+1)*PacketSize]
		if m := s.cfg.Metrics; m != nil {
			m.Requests.Inc()
		}
		if oks != nil {
			oks[i] = false
		}
		if prevRaw == nil || !bytes.Equal(raw, prevRaw) {
			prevRaw = raw
			prevOff = -1
			reqOK = DecodeInto(&req, raw) == nil && req.Mode == ModeClient
		}
		if !reqOK {
			continue
		}
		now = s.cfg.Now()
		if s.overRate(clients[i].Addr(), now) {
			if m := s.cfg.Metrics; m != nil {
				m.RateLimited.Inc()
			}
			kod := kissOfDeath(&req, now)
			dst = kod.AppendEncode(dst)
			prevOff = -1 // KoD breaks the plain-response run
			if oks != nil {
				oks[i] = true
			}
			answered++
			continue
		}
		if m := s.cfg.Metrics; m != nil {
			m.Answered.Inc()
		}
		if s.cfg.Capture != nil {
			s.cfg.Capture(clients[i], now)
		}
		if prevOff >= 0 && now.Equal(prevNow) {
			// Same request template, same instant: the response bytes
			// are identical — copy the previous stride.
			dst = append(dst, dst[prevOff:prevOff+PacketSize]...)
		} else {
			resp := Packet{
				Leap:          LeapNone,
				Version:       req.Version,
				Mode:          ModeServer,
				Stratum:       s.cfg.Stratum,
				Poll:          req.Poll,
				Precision:     -20,
				ReferenceID:   s.cfg.ReferenceID,
				ReferenceTime: ToTime64(now.Add(-17 * time.Second)),
				OriginTime:    req.TransmitTime,
				ReceiveTime:   ToTime64(now),
				TransmitTime:  ToTime64(now),
			}
			prevOff = len(dst)
			prevNow = now
			dst = resp.AppendEncode(dst)
		}
		if oks != nil {
			oks[i] = true
		}
		answered++
	}
	return dst, answered
}

// Handle adapts the server to a netsim packet handler.
func (s *Server) Handle(from netip.AddrPort, payload []byte) [][]byte {
	if resp := s.Respond(from, payload); resp != nil {
		return [][]byte{resp}
	}
	return nil
}

// Serve answers requests on a real socket until the connection is closed
// or reading fails for another reason. It returns the first terminal
// error (net.ErrClosed on clean shutdown).
func (s *Server) Serve(conn net.PacketConn) error {
	buf := make([]byte, 1024)
	resp := make([]byte, 0, PacketSize)
	for {
		n, raddr, err := conn.ReadFrom(buf)
		if err != nil {
			return err
		}
		client := addrPortOf(raddr)
		if out, ok := s.RespondAppend(client, buf[:n], resp[:0]); ok {
			resp = out
			if _, err := conn.WriteTo(out, raddr); err != nil {
				return err
			}
		}
	}
}

func addrPortOf(a net.Addr) netip.AddrPort {
	if ua, ok := a.(*net.UDPAddr); ok {
		if ap, ok := netip.AddrFromSlice(ua.IP); ok {
			return netip.AddrPortFrom(ap.Unmap(), uint16(ua.Port))
		}
	}
	return netip.AddrPort{}
}
