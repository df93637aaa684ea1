package coapx

import (
	"bytes"
	"net/netip"
	"time"

	"ntpscan/internal/freelist"
)

// DeviceOptions describes a simulated CoAP endpoint.
type DeviceOptions struct {
	// Resources are the paths advertised via /.well-known/core
	// (e.g. "/castDeviceSearch", "/qlink/config"). An empty list still
	// answers discovery with an empty document — the "empty" group of
	// Table 3.
	Resources []string
}

// handlerMsgs pools the scratch messages Handler parses requests into;
// option values alias the request payload, which the handler is done
// with before it returns.
var handlerMsgs = freelist.List[*Message]{
	New: func() *Message { return &Message{} },
}

// Handler returns a netsim UDP packet handler implementing the device.
// The response bodies are precomputed per device: a request only
// selects one of them and stamps the echoed message ID and token, so
// steady-state handling allocates just the outgoing datagram.
func Handler(opts DeviceOptions) func(netip.AddrPort, []byte) [][]byte {
	// Response tails (everything after the echoed ID/token) by outcome.
	discovery := appendRespTail(nil, []Option{{
		Number: OptionContentFormat,
		Value:  []byte{ContentFormatLinkFormat},
	}}, []byte(EncodeLinkFormat(opts.Resources)))
	resource := appendRespTail(nil, nil, []byte("{}"))
	notFound := appendRespTail(nil, nil, nil)

	resSegs := make([][]string, len(opts.Resources))
	for i, r := range opts.Resources {
		resSegs[i] = splitPath(r)
	}

	return func(from netip.AddrPort, payload []byte) [][]byte {
		req := handlerMsgs.Get()
		defer handlerMsgs.Put(req)
		if err := parseInto(req, payload, false); err != nil || req.Code != CodeGET {
			return nil
		}
		var tail []byte
		var code Code
		switch {
		case req.pathEquals(wellKnownSegs):
			tail, code = discovery, CodeContent
		case matchesAny(req, resSegs):
			tail, code = resource, CodeContent
		default:
			tail, code = notFound, CodeNotFound
		}
		enc := make([]byte, 0, 4+len(req.Token)+len(tail))
		enc = append(enc,
			1<<6|byte(Acknowledgement)<<4|byte(len(req.Token)),
			byte(code),
			byte(req.MessageID>>8),
			byte(req.MessageID))
		enc = append(enc, req.Token...)
		enc = append(enc, tail...)
		return [][]byte{enc}
	}
}

// appendRespTail encodes the option+payload suffix of an acknowledgement.
func appendRespTail(dst []byte, opts []Option, payload []byte) []byte {
	prev := uint16(0)
	for _, o := range opts {
		dst = appendOptionHeader(dst, o.Number-prev, len(o.Value))
		dst = append(dst, o.Value...)
		prev = o.Number
	}
	if len(payload) > 0 {
		dst = append(dst, 0xff)
		dst = append(dst, payload...)
	}
	return dst
}

// wellKnownSegs is the discovery path in segment form.
var wellKnownSegs = []string{".well-known", "core"}

// splitPath breaks "/a/b" into {"a","b"} without strings.Split's
// surrounding allocations at call sites that run per request.
func splitPath(p string) []string {
	var segs []string
	for len(p) > 0 {
		for len(p) > 0 && p[0] == '/' {
			p = p[1:]
		}
		if len(p) == 0 {
			break
		}
		i := 0
		for i < len(p) && p[i] != '/' {
			i++
		}
		segs = append(segs, p[:i])
		p = p[i:]
	}
	return segs
}

// pathEquals reports whether the message's Uri-Path options spell segs.
func (m *Message) pathEquals(segs []string) bool {
	i := 0
	for _, o := range m.Options {
		if o.Number != OptionUriPath {
			continue
		}
		if i >= len(segs) || string(o.Value) != segs[i] {
			return false
		}
		i++
	}
	return i == len(segs)
}

func matchesAny(m *Message, resources [][]string) bool {
	for _, segs := range resources {
		if m.pathEquals(segs) {
			return true
		}
	}
	return false
}

// Respond computes the device's answer to a GET.
func Respond(req *Message, opts DeviceOptions) *Message {
	resp := &Message{
		Type:      Acknowledgement,
		MessageID: req.MessageID,
		Token:     req.Token,
	}
	switch path := req.Path(); path {
	case "/.well-known/core":
		resp.Code = CodeContent
		resp.Options = []Option{{
			Number: OptionContentFormat,
			Value:  []byte{ContentFormatLinkFormat},
		}}
		resp.Payload = []byte(EncodeLinkFormat(opts.Resources))
	default:
		for _, r := range opts.Resources {
			if r == path {
				resp.Code = CodeContent
				resp.Payload = []byte("{}")
				return resp
			}
		}
		resp.Code = CodeNotFound
	}
	return resp
}

// ScanResult is the outcome of one CoAP discovery probe.
type ScanResult struct {
	Code      Code
	Resources []string // parsed from link-format on 2.05
}

// PacketSocket is the datagram surface ScanConn needs. netsim's UDPConn
// satisfies it directly; real net.PacketConn sockets satisfy it through
// a thin adapter (see zgrab's RealNet).
type PacketSocket interface {
	WriteTo(p []byte, dst netip.AddrPort) (int, error)
	ReadFrom(p []byte) (int, netip.AddrPort, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

// scanScratch is the per-probe working set of ScanConn, pooled so a
// steady-state probe allocates only its result: the request token and
// encoding, the 2 KB receive buffer (formerly a fresh allocation per
// probe — one of the campaign's top sites by bytes), and the parsed
// response (whose fields alias buf).
type scanScratch struct {
	token [4]byte
	enc   []byte
	buf   []byte
	resp  Message
}

var scanScratches = freelist.List[*scanScratch]{
	New: func() *scanScratch {
		return &scanScratch{enc: make([]byte, 0, 64), buf: make([]byte, 2048)}
	},
}

// wellKnownOpts is the Uri-Path option pair of the discovery request.
var wellKnownOpts = []Option{
	{Number: OptionUriPath, Value: []byte(".well-known")},
	{Number: OptionUriPath, Value: []byte("core")},
}

// ScanConn sends GET /.well-known/core over an already-bound socket and
// parses the reply. messageID seeds the request identifiers; the
// response must echo the derived token. The caller keeps ownership of
// sock.
func ScanConn(sock PacketSocket, dst netip.AddrPort, messageID uint16, timeout time.Duration) (*ScanResult, error) {
	sc := scanScratches.Get()
	defer scanScratches.Put(sc)
	sc.token = [4]byte{byte(messageID >> 8), byte(messageID), 0x5c, 0x0a}
	req := Message{
		Type:      Confirmable,
		Code:      CodeGET,
		MessageID: messageID,
		Token:     sc.token[:],
		Options:   wellKnownOpts,
	}
	enc, err := req.MarshalAppend(sc.enc[:0])
	if err != nil {
		return nil, err
	}
	sc.enc = enc[:0]
	if _, err := sock.WriteTo(enc, dst); err != nil {
		return nil, err
	}
	sock.SetReadDeadline(time.Now().Add(timeout))
	for {
		n, from, err := sock.ReadFrom(sc.buf)
		if err != nil {
			return nil, err
		}
		if from != dst {
			continue
		}
		if err := parseInto(&sc.resp, sc.buf[:n], false); err != nil {
			return nil, err
		}
		if !bytes.Equal(sc.resp.Token, sc.token[:]) {
			continue // stale or spoofed reply
		}
		res := &ScanResult{Code: sc.resp.Code}
		if sc.resp.Code == CodeContent {
			res.Resources = parseLinkFormatBytes(sc.resp.Payload)
		}
		return res, nil
	}
}
