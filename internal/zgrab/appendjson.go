// Result encoding. AppendJSON is the one writer of the zgrab2-style
// envelope: the campaign's JSONL sink, the store's JSONL export and
// grab column, JSONLWriter and queryd's /v1/query rows all go through
// it. Its contract is byte identity with encoding/json on the same
// struct — key order, omitempty, HTML escaping, invalid UTF-8, RFC 3339
// times and time.Time.MarshalJSON's refusals — which is why Result
// keeps its json tags and gets no MarshalJSON method: encoding/json
// stays the reference the tests and FuzzResultAppendJSON compare
// against, and the decode side (DecodeJSONL, SetGrabs) is untouched.
// Nothing here allocates once dst has room.

package zgrab

import (
	"errors"
	"net/netip"
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendJSON appends r as one JSON object, exactly the bytes
// json.Marshal(r) produces (JSONL writers add the '\n' Encoder.Encode
// would). On error dst comes back at its original length.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, `{"ip":`...)
	dst = AppendJSONAddr(dst, r.IP)
	dst = append(dst, `,"module":`...)
	dst = AppendJSONString(dst, r.Module)
	dst = append(dst, `,"port":`...)
	dst = strconv.AppendUint(dst, uint64(r.Port), 10)
	dst = append(dst, `,"time":`...)
	dst, err := appendTime(dst, r.Time)
	if err != nil {
		return dst[:n0], err
	}
	dst = append(dst, `,"status":`...)
	dst = AppendJSONString(dst, string(r.Status))
	dst = appendOptString(dst, `,"error":`, r.Error)
	if r.Attempts != 0 {
		dst = append(dst, `,"attempts":`...)
		dst = strconv.AppendInt(dst, int64(r.Attempts), 10)
	}
	if dst, err = r.appendGrabMembers(dst); err != nil {
		return dst[:n0], err
	}
	return append(dst, '}'), nil
}

// AppendGrabs appends the result's module-specific payload to buf as
// one JSON object — the bytes json.Marshal(grabPayload{...}) produces,
// which the columnar store keeps as an opaque per-row value — or
// appends nothing when the result carries no grab. On error buf comes
// back at its original length.
func (r *Result) AppendGrabs(buf []byte) ([]byte, error) {
	n0 := len(buf)
	buf, err := r.appendGrabMembers(buf)
	if err != nil || len(buf) == n0 {
		return buf[:n0], err
	}
	buf[n0] = '{' // the first member's leading comma
	return append(buf, '}'), nil
}

// appendGrabMembers appends `,"<module>":{...}` for every grab present,
// in struct order. Only the TLS validity times can fail.
func (r *Result) appendGrabMembers(dst []byte) ([]byte, error) {
	if g := r.HTTP; g != nil {
		dst = append(dst, `,"http":{"status_code":`...)
		dst = strconv.AppendInt(dst, int64(g.StatusCode), 10)
		dst = append(dst, `,"title":`...)
		dst = AppendJSONString(dst, g.Title)
		dst = appendOptString(dst, `,"server":`, g.Server)
		dst = append(dst, '}')
	}
	if g := r.TLS; g != nil {
		dst = append(dst, `,"tls":{`...)
		if g.Version != "" {
			dst = append(dst, `"version":`...)
			dst = AppendJSONString(dst, g.Version)
			dst = append(dst, ',')
		}
		dst = append(dst, `"handshake_ok":`...)
		dst = strconv.AppendBool(dst, g.HandshakeOK)
		dst = appendOptString(dst, `,"alert":`, g.Alert)
		dst = appendOptString(dst, `,"cert_fingerprint":`, g.CertFingerprint)
		dst = appendOptString(dst, `,"subject":`, g.Subject)
		dst = appendOptString(dst, `,"issuer":`, g.Issuer)
		if g.SelfSigned {
			dst = append(dst, `,"self_signed":true`...)
		}
		dst = appendOptString(dst, `,"key_id":`, g.KeyID)
		var err error
		dst = append(dst, `,"not_before":`...)
		if dst, err = appendTime(dst, g.NotBefore); err != nil {
			return dst, err
		}
		dst = append(dst, `,"not_after":`...)
		if dst, err = appendTime(dst, g.NotAfter); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	if g := r.SSH; g != nil {
		dst = append(dst, `,"ssh":{"server_id":`...)
		dst = AppendJSONString(dst, g.ServerID)
		dst = append(dst, `,"software":`...)
		dst = AppendJSONString(dst, g.Software)
		dst = appendOptString(dst, `,"os":`, g.OS)
		dst = appendOptString(dst, `,"key_type":`, g.KeyType)
		dst = appendOptString(dst, `,"key_fingerprint":`, g.KeyFingerprint)
		dst = append(dst, '}')
	}
	if g := r.MQTT; g != nil {
		dst = append(dst, `,"mqtt":{"return_code":`...)
		dst = strconv.AppendUint(dst, uint64(g.ReturnCode), 10)
		dst = append(dst, `,"open":`...)
		dst = strconv.AppendBool(dst, g.Open)
		dst = append(dst, '}')
	}
	if g := r.AMQP; g != nil {
		dst = append(dst, `,"amqp":{`...)
		if g.Product != "" {
			dst = append(dst, `"product":`...)
			dst = AppendJSONString(dst, g.Product)
			dst = append(dst, ',')
		}
		if g.Mechanisms != "" {
			dst = append(dst, `"mechanisms":`...)
			dst = AppendJSONString(dst, g.Mechanisms)
			dst = append(dst, ',')
		}
		dst = append(dst, `"open":`...)
		dst = strconv.AppendBool(dst, g.Open)
		if g.CloseCode != 0 {
			dst = append(dst, `,"close_code":`...)
			dst = strconv.AppendUint(dst, uint64(g.CloseCode), 10)
		}
		dst = append(dst, '}')
	}
	if g := r.CoAP; g != nil {
		dst = append(dst, `,"coap":{"code":`...)
		dst = AppendJSONString(dst, g.Code)
		if len(g.Resources) > 0 {
			dst = append(dst, `,"resources":[`...)
			for i, res := range g.Resources {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = AppendJSONString(dst, res)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	return dst, nil
}

// appendOptString appends an omitempty string member: key (with its
// leading comma and trailing colon) and the quoted value, or nothing
// when s is empty.
func appendOptString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return AppendJSONString(append(dst, key...), s)
}

// AppendJSONAddr appends ip as encoding/json writes a netip.Addr: its
// MarshalText form as a string, "" for the zero Addr. Only a zone can
// carry bytes that need escaping.
func AppendJSONAddr(dst []byte, ip netip.Addr) []byte {
	if ip.Zone() != "" {
		return AppendJSONString(dst, ip.String())
	}
	dst = append(dst, '"')
	dst = ip.AppendTo(dst)
	return append(dst, '"')
}

// What time.Time.MarshalJSON refuses to write.
var (
	errTimeYear = errors.New("zgrab: result time: year outside of range [0,9999]")
	errTimeZone = errors.New("zgrab: result time: timezone hour outside of range [0,23]")
)

// appendTime appends t as time.Time.MarshalJSON does: quoted RFC 3339
// with nanoseconds, refusing what RFC 3339 cannot express. The checks
// read the formatted bytes, as the standard library's do.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	dst = append(dst, '"')
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if dst[n0+len("9999")] != '-' {
		return dst, errTimeYear
	}
	if dst[len(dst)-1] != 'Z' {
		// Zone is ±hh:mm; a digit where the sign belongs means hh has
		// three digits.
		zone := dst[len(dst)-len("+07:00"):]
		if c := zone[0]; (c >= '0' && c <= '9') || 10*(zone[1]-'0')+(zone[2]-'0') >= 24 {
			return dst, errTimeZone
		}
	}
	return append(dst, '"'), nil
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal with
// encoding/json's default escaping: the two-character escapes for
// `"`, `\`, \b, \f, \n, \r, \t; \u00XX for other controls and for the
// HTML-sensitive <, > and &; \u2028 and \u2029; and \ufffd for each
// byte of invalid UTF-8.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
