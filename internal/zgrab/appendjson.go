// Result encoding. AppendJSON is the one writer of the zgrab2-style
// envelope: core's ordered sink (the campaign's JSONL and every batch
// scan's), the store's JSONL export and grab column, and queryd's
// /v1/query rows all go through it. Its contract is byte identity with encoding/json on the same
// struct — key order, omitempty, HTML escaping, invalid UTF-8, RFC 3339
// times and time.Time.MarshalJSON's refusals — which is why Result
// keeps its json tags and gets no MarshalJSON method: encoding/json
// stays the reference the tests and FuzzResultAppendJSON compare
// against, and the decode side (DecodeJSONL, SetGrabs) is untouched.
// ScanState.AppendJSON, the scanner's section of a campaign
// checkpoint, keeps the same contract with the same writers.
// Nothing here allocates once dst has room.

package zgrab

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"net/netip"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendJSON appends r as one JSON object, exactly the bytes
// json.Marshal(r) produces (JSONL writers add the '\n' Encoder.Encode
// would). On error dst comes back at its original length.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	var m RowMemo
	return m.AppendJSON(dst, r)
}

// RowMemo lets consecutive rows written into one buffer share their
// "ip" and "time" values' bytes. A target's rows repeat its address,
// and its time too when no inter-protocol delay or backoff moves it, so
// after the first row the encoder copies those bytes from where the
// previous row left them in the buffer instead of formatting them
// again. The zero RowMemo remembers nothing.
type RowMemo struct {
	ip              netip.Addr
	time            time.Time
	ipAt, ipEnd     int // ip's value in the buffer; ipEnd 0: none
	timeAt, timeEnd int // time's value in the buffer; timeEnd 0: none
}

// Reset forgets the remembered bytes.
func (m *RowMemo) Reset() { *m = RowMemo{} }

// AppendJSON appends r as Result.AppendJSON does, every byte the same:
// it is the one result writer, and Result.AppendJSON is it with a memo
// that remembers nothing. dst must be the buffer the memo's earlier
// rows were appended to, with those bytes still in place: a caller that
// cuts the buffer back or swaps it calls Reset first. A row that fails
// to encode resets the memo itself.
func (m *RowMemo) AppendJSON(dst []byte, r *Result) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, `{"ip":`...)
	// A netip.Addr or time.Time equal under == writes equal bytes.
	if m.ipEnd > 0 && r.IP == m.ip {
		dst = append(dst, dst[m.ipAt:m.ipEnd]...)
	} else {
		at := len(dst)
		dst = AppendJSONAddr(dst, r.IP)
		m.ip, m.ipAt, m.ipEnd = r.IP, at, len(dst)
	}
	dst = append(dst, `,"module":`...)
	dst = AppendJSONString(dst, r.Module)
	dst = append(dst, `,"port":`...)
	dst = strconv.AppendUint(dst, uint64(r.Port), 10)
	dst = append(dst, `,"time":`...)
	var err error
	if m.timeEnd > 0 && r.Time == m.time {
		dst = append(dst, dst[m.timeAt:m.timeEnd]...)
	} else {
		at := len(dst)
		if dst, err = AppendJSONTime(dst, r.Time); err != nil {
			m.Reset()
			return dst[:n0], err
		}
		m.time, m.timeAt, m.timeEnd = r.Time, at, len(dst)
	}
	dst = append(dst, `,"status":`...)
	dst = AppendJSONString(dst, string(r.Status))
	dst = appendOptString(dst, `,"error":`, r.Error)
	if r.Attempts != 0 {
		dst = append(dst, `,"attempts":`...)
		dst = strconv.AppendInt(dst, int64(r.Attempts), 10)
	}
	if dst, err = r.appendGrabMembers(dst); err != nil {
		m.Reset()
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
		if dst, err = AppendJSONTime(dst, g.NotBefore); err != nil {
			return dst, err
		}
		dst = append(dst, `,"not_after":`...)
		if dst, err = AppendJSONTime(dst, g.NotAfter); err != nil {
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

// AppendJSON appends st as one JSON object, exactly the bytes
// json.Marshal(st) produces: the checkpoint's "scan" section. Only a
// time can fail; on error dst comes back at its original length.
func (st *ScanState) AppendJSON(dst []byte) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, `{"next_seq":`...)
	dst = strconv.AppendInt(dst, st.NextSeq, 10)
	var err error
	if len(st.Revisit) > 0 {
		dst = append(dst, `,"revisit":[`...)
		for i := range st.Revisit {
			e := &st.Revisit[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"addr":`...)
			dst = AppendJSONAddr(dst, e.Addr)
			dst = append(dst, `,"last":`...)
			if dst, err = AppendJSONTime(dst, e.Last); err != nil {
				return dst[:n0], err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(st.Breaker) > 0 {
		dst = append(dst, `,"breaker":[`...)
		for i := range st.Breaker {
			e := &st.Breaker[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			// A prefix's text is digits, hex, '.', ':', '/' or "invalid
			// Prefix" (a Prefix holds no zone): nothing to escape.
			dst = append(dst, `{"prefix":"`...)
			dst = e.Prefix.AppendTo(dst)
			dst = append(dst, `","state":`...)
			dst = strconv.AppendInt(dst, int64(e.State), 10)
			dst = append(dst, `,"opened_at":`...)
			if dst, err = AppendJSONTime(dst, e.OpenedAt); err != nil {
				return dst[:n0], err
			}
			if e.WinDark != 0 {
				dst = append(dst, `,"win_dark":`...)
				dst = strconv.AppendInt(dst, e.WinDark, 10)
			}
			if e.WinAlive != 0 {
				dst = append(dst, `,"win_alive":`...)
				dst = strconv.AppendInt(dst, e.WinAlive, 10)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// JSONSizeHint is about len(AppendJSON's output) — at least it for
// every unzoned revisit address — so a caller sizing one buffer for a
// whole checkpoint allocates once.
func (st *ScanState) JSONSizeHint() int {
	const (
		revisitLen = len(`{"addr":"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff","last":"2006-01-02T15:04:05.999999999-07:00"},`)
		breakerLen = len(`{"prefix":"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128","state":-2147483648,"opened_at":"2006-01-02T15:04:05.999999999-07:00","win_dark":-9223372036854775808,"win_alive":-9223372036854775808},`)
	)
	return len(`{"next_seq":-9223372036854775808,"revisit":[],"breaker":[]}`) +
		len(st.Revisit)*revisitLen + len(st.Breaker)*breakerLen
}

// AppendJSONAddr appends ip as encoding/json writes a netip.Addr: its
// MarshalText form as a string, "" for the zero Addr. Only a zone can
// carry bytes that need escaping. It is the one address encoder: plain
// IPv6 — every address a campaign scans — is written here, from
// tables; the zero Addr, IPv4, IPv4-mapped and zoned addresses go
// through netip.
func AppendJSONAddr(dst []byte, ip netip.Addr) []byte {
	if ip.Zone() != "" {
		return AppendJSONString(dst, ip.String())
	}
	if ip.Is6() && !ip.Is4In6() {
		return appendIPv6(dst, ip.As16())
	}
	dst = append(dst, '"')
	dst = ip.AppendTo(dst)
	return append(dst, '"')
}

var (
	// hexPairs holds byte b as two lowercase hex digits, the high one in
	// the low byte: the order a little-endian store writes them in.
	hexPairs [256]uint16
	// zeroRuns maps the set of an address's all-zero 16-bit fields (bit
	// i set: field i is zero) to the fields [start, end) RFC 5952
	// replaces with "::": the first longest run of at least two. start
	// is 8 when there is none.
	zeroRuns [256]struct{ start, end uint8 }
)

func init() {
	for b := range hexPairs {
		hexPairs[b] = uint16(hexDigits[b>>4]) | uint16(hexDigits[b&0xF])<<8
	}
	for m := range zeroRuns {
		start, end := 8, 8
		for i := 0; i < 8; i++ {
			j := i
			for j < 8 && m>>j&1 != 0 {
				j++
			}
			if j-i >= 2 && j-i > end-start {
				start, end = i, j
			}
		}
		zeroRuns[m].start, zeroRuns[m].end = uint8(start), uint8(end)
	}
}

// appendIPv6 appends a as netip.Addr.AppendTo writes a plain IPv6
// address, in quotes: RFC 5952 text, which needs no escaping. Scanned
// interface identifiers are random, so a branch on a field's digit
// count is a coin toss; each field is instead stored as all four
// digits shifted down by its leading zeros, the next store covering
// what spills over.
func appendIPv6(dst []byte, a [16]byte) []byte {
	var f [8]uint32
	zero := 0
	for i := range f {
		f[i] = uint32(a[2*i])<<8 | uint32(a[2*i+1])
		zero |= int((f[i]-1)>>31) << i // the subtraction wraps for 0 alone
	}
	run := zeroRuns[zero]
	const maxLen = len(`"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"`)
	dst = slices.Grow(dst, maxLen)
	buf := dst[len(dst) : len(dst)+maxLen]
	buf[0] = '"'
	n := 1
	for i := 0; i < 8; i++ {
		if i == int(run.start) {
			buf[n], buf[n+1] = ':', ':'
			n += 2
			if i = int(run.end); i == 8 {
				break
			}
		} else if i > 0 {
			buf[n] = ':'
			n++
		}
		v := f[i]
		digits := uint32(hexPairs[v>>8]) | uint32(hexPairs[v&0xff])<<16
		skip := bits.LeadingZeros16(uint16(v)|1) / 4 // a zero field keeps one digit
		binary.LittleEndian.PutUint32(buf[n:], digits>>(8*skip))
		n += 4 - skip
	}
	buf[n] = '"'
	return dst[:len(dst)+n+1]
}

// What time.Time.MarshalJSON refuses to write.
var (
	errTimeYear = errors.New("zgrab: time: year outside of range [0,9999]")
	errTimeZone = errors.New("zgrab: time: timezone hour outside of range [0,23]")
)

// AppendJSONTime appends t as time.Time.MarshalJSON does: quoted RFC
// 3339 with nanoseconds, refusing what RFC 3339 cannot express. A UTC
// time in years 0 to 9999 — every time a campaign stamps — is written
// digit by digit; any other goes through time.AppendFormat, and the
// checks read the formatted bytes, as the standard library's do. On
// error dst holds a partial time; callers cut it back.
func AppendJSONTime(dst []byte, t time.Time) ([]byte, error) {
	if t.Location() == time.UTC {
		if sec := t.Unix(); sec >= unixYear0 && sec < unixYear10000 {
			return appendUTC(dst, sec, t.Nanosecond()), nil
		}
	}
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

// The Unix seconds of 0000-01-01T00:00:00Z and 10000-01-01T00:00:00Z.
const (
	unixYear0     = -62167219200
	unixYear10000 = 253402300800
)

// appendUTC appends the quoted RFC 3339 text of sec seconds and nsec
// nanoseconds past the Unix epoch, in UTC, sec in [unixYear0,
// unixYear10000): "YYYY-MM-DDThh:mm:ss", then a '.' and the nanoseconds
// without trailing zeros unless nsec is 0, then "Z". The date is the
// proleptic Gregorian one, found as Hinnant's civil_from_days does:
// in years that begin on March 1, so a leap day ends its year, counted
// from 1 March of year -400 so every count is non-negative.
func appendUTC(dst []byte, sec int64, nsec int) []byte {
	secs := sec - unixYear0
	rem := int(secs % 86400)
	days := int(secs/86400) - 60 + 146097 // 0000-01-01 is 60 days before 0000-03-01
	era, doe := days/146097, days%146097  // 400-year eras of 146 097 days
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153 // months since March
	year, month, day := era*400+yoe-400, mp+3, doy-(153*mp+2)/5+1
	if month > 12 {
		month -= 12
		year++
	}
	const maxLen = len(`"2006-01-02T15:04:05.999999999Z"`)
	dst = slices.Grow(dst, maxLen)
	b := dst[len(dst) : len(dst)+maxLen]
	hh, mm, ss := rem/3600, rem/60%60, rem%60
	b[0] = '"'
	b[1], b[2], b[3], b[4] = byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10)
	b[5], b[6], b[7], b[8] = '-', byte('0'+month/10), byte('0'+month%10), '-'
	b[9], b[10], b[11] = byte('0'+day/10), byte('0'+day%10), 'T'
	b[12], b[13], b[14] = byte('0'+hh/10), byte('0'+hh%10), ':'
	b[15], b[16], b[17] = byte('0'+mm/10), byte('0'+mm%10), ':'
	b[18], b[19] = byte('0'+ss/10), byte('0'+ss%10)
	n := 20
	if nsec != 0 {
		b[n] = '.'
		for i := 9; i > 0; i-- {
			b[n+i] = byte('0' + nsec%10)
			nsec /= 10
		}
		n += 10
		for b[n-1] == '0' {
			n--
		}
	}
	b[n], b[n+1] = 'Z', '"'
	return dst[:len(dst)+n+2]
}

const hexDigits = "0123456789abcdef"

// jsonSafe[b] reports whether byte b stands for itself inside a JSON
// string: printable ASCII other than `"`, `\` and the HTML-sensitive
// <, > and &. A byte of 0x80 or above starts a multi-byte sequence that
// must be checked for validity and for U+2028 and U+2029.
var jsonSafe [256]bool

func init() {
	for b := ' '; b < utf8.RuneSelf; b++ {
		jsonSafe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
}

// AppendJSONString appends s as a JSON string literal with
// encoding/json's default escaping: the two-character escapes for
// `"`, `\`, \b, \f, \n, \r, \t; \u00XX for other controls and for the
// HTML-sensitive <, > and &; \u2028 and \u2029; and \ufffd for each
// byte of invalid UTF-8. A string of safe bytes alone — module names,
// statuses, the error texts of a silent probe — is copied whole.
func AppendJSONString(dst []byte, s string) []byte {
	i := 0
	for i < len(s) && jsonSafe[s[i]] {
		i++
	}
	dst = append(dst, '"')
	if i == len(s) {
		dst = append(dst, s...)
		return append(dst, '"')
	}
	start := 0
	for i < len(s) {
		b := s[i]
		if jsonSafe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
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
