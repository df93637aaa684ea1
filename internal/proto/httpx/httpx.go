// Package httpx implements the minimal HTTP/1.1 client and server the
// scan pipeline uses. The client issues one GET and parses the response
// (status, headers, body, HTML title); the server renders device web
// interfaces from a small template model.
//
// Both ends speak real HTTP/1.1 over any net.Conn — plain TCP, the
// netsim fabric, tlsx, or stdlib crypto/tls — so the scanner code is the
// same for HTTP and HTTPS and for simulation and real sockets.
package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"ntpscan/internal/freelist"
)

// maxBodyBytes bounds how much of a response body the client retains,
// like zgrab2's body truncation. Titles live in the first kilobytes.
const maxBodyBytes = 64 << 10

// maxHeaderBytes bounds the header section to keep malicious or broken
// servers from ballooning memory.
const maxHeaderBytes = 32 << 10

// Response is a parsed HTTP response.
type Response struct {
	Proto      string // e.g. "HTTP/1.1"
	StatusCode int
	Status     string            // e.g. "200 OK"
	Header     map[string]string // canonicalised field names, last wins
	Body       []byte            // up to maxBodyBytes
}

// Errors returned by the client.
var (
	ErrMalformedResponse = errors.New("httpx: malformed response")
)

// reqTrailer is the constant tail of every request we emit.
const reqTrailer = "User-Agent: ntpscan-research-scanner/1.0 (+https://example.edu/scan)\r\n" +
	"Accept: */*\r\n" +
	"Connection: close\r\n\r\n"

// defaultGET is the request of the mass-scan probing mode (no Host
// header, root path) — the only request the campaign hot path sends,
// precomputed so Get builds nothing per probe.
const defaultGET = "GET / HTTP/1.1\r\n" + reqTrailer

// clientReader is the pooled read side of one Get call: the byte-limit
// guard and the buffered reader, recycled together so a probe allocates
// neither.
type clientReader struct {
	lr io.LimitedReader
	br *bufio.Reader
}

var clientReaders = freelist.List[*clientReader]{
	New: func() *clientReader {
		cr := &clientReader{}
		cr.br = bufio.NewReader(&cr.lr)
		return cr
	},
}

// Get writes a GET request for path with the given Host header (empty
// means the header is omitted — the address-literal probing mode of mass
// scans) and parses the response. The caller owns conn and its deadlines.
func Get(conn net.Conn, host, path string) (*Response, error) {
	if path == "" {
		path = "/"
	}
	if host == "" && path == "/" {
		if _, err := io.WriteString(conn, defaultGET); err != nil {
			return nil, err
		}
	} else {
		var req strings.Builder
		fmt.Fprintf(&req, "GET %s HTTP/1.1\r\n", path)
		if host != "" {
			fmt.Fprintf(&req, "Host: %s\r\n", host)
		}
		req.WriteString(reqTrailer)
		if _, err := io.WriteString(conn, req.String()); err != nil {
			return nil, err
		}
	}
	cr := clientReaders.Get()
	cr.lr.R = conn
	cr.lr.N = maxHeaderBytes + maxBodyBytes + 4096
	cr.br.Reset(&cr.lr)
	resp, err := ReadResponse(cr.br)
	cr.lr.R = nil
	cr.br.Reset(&cr.lr) // drop any buffered reference to conn's data
	clientReaders.Put(cr)
	return resp, err
}

// ReadResponse parses an HTTP/1.x response from r.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	b, err := readLine(r)
	if err != nil {
		return nil, err
	}
	// Proto and Status are kept, so the status line is the one line
	// converted whole.
	line := string(b)
	proto, rest, ok := strings.Cut(line, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") {
		return nil, ErrMalformedResponse
	}
	codeStr, _, _ := strings.Cut(rest, " ")
	code, err := strconv.Atoi(codeStr)
	if err != nil || code < 100 || code > 599 {
		return nil, ErrMalformedResponse
	}
	resp := &Response{
		Proto:      proto,
		StatusCode: code,
		Status:     rest,
		Header:     make(map[string]string),
	}
	total := 0
	for {
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			break
		}
		total += len(line)
		if total > maxHeaderBytes {
			return nil, ErrMalformedResponse
		}
		if bytes.IndexByte(line, ':') < 0 {
			continue // tolerate junk header lines
		}
		// Name and value are both kept: one conversion backs the two.
		name, value, _ := strings.Cut(string(line), ":")
		resp.Header[canonical(name)] = strings.TrimSpace(value)
	}

	// Body: honour Content-Length when present, otherwise read to EOF
	// (Connection: close semantics). Chunked encoding is not emitted by
	// our servers and therefore not implemented; a chunked body is
	// retained raw.
	limit := int64(maxBodyBytes)
	sized := false
	if cl, ok := resp.Header["Content-Length"]; ok {
		if n, err := strconv.ParseInt(cl, 10, 64); err == nil && n >= 0 && n < limit {
			limit, sized = n, true
		}
	}
	if sized {
		// A declared length lets the body land in one right-sized
		// allocation instead of io.ReadAll's doubling growth.
		buf := make([]byte, limit)
		n, err := io.ReadFull(r, buf)
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, err
		}
		resp.Body = buf[:n]
		return resp, nil
	}
	body, err := io.ReadAll(io.LimitReader(r, limit))
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	resp.Body = body
	return resp, nil
}

// readLine returns the next line without its trailing CR and LF bytes.
// The slice points into r's buffer and holds only until the next read
// from r, so a caller converts to a string just what it keeps. A line
// longer than the buffer is gathered into a fresh slice.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil && (!errors.Is(err, io.EOF) || len(line) == 0) {
		return nil, err
	}
	// A final unterminated line is tolerated.
	return bytes.TrimRight(line, "\r\n"), nil
}

// canonical normalises a header field name (Content-Length style).
// Well-formed senders — every server in the fabric — already emit
// canonical names, so the common case returns the input unchanged
// without the split/rejoin allocations.
func canonical(name string) string {
	name = strings.TrimSpace(name)
	if isCanonical(name) {
		return name
	}
	parts := strings.Split(name, "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + strings.ToLower(p[1:])
	}
	return strings.Join(parts, "-")
}

// isCanonical reports whether name is already in Canonical-Form: each
// dash-separated part starts with an uppercase (or non-letter) byte
// followed by no uppercase letters.
func isCanonical(name string) bool {
	first := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '-' {
			first = true
			continue
		}
		if first {
			if c >= 'a' && c <= 'z' {
				return false
			}
		} else if c >= 'A' && c <= 'Z' {
			return false
		}
		first = false
	}
	return true
}

// Title extracts the contents of the first <title> element from the
// response body, whitespace-collapsed. It returns "" when no title is
// present — the "(no title present)" group of Table 3. It works on the
// body bytes directly: stringifying a 64 KB body to find a 30-byte
// title was one of the scan path's larger per-probe allocations.
func (r *Response) Title() string {
	return extractTitle(r.Body)
}

// ExtractTitle finds the first <title>...</title> in doc,
// case-insensitively, and returns its collapsed text content.
//
// Matching uses ASCII case folding on the raw bytes: strings.ToLower can
// change the byte length of non-ASCII input, which would desynchronise
// offsets from the original document (found by fuzzing; scan targets
// serve arbitrary bytes).
func ExtractTitle(doc string) string {
	return extractTitle([]byte(doc))
}

func extractTitle(doc []byte) string {
	start := asciiIndexFold(doc, "<title")
	if start < 0 {
		return ""
	}
	// Skip to the end of the opening tag (it may carry attributes).
	openEnd := bytes.IndexByte(doc[start:], '>')
	if openEnd < 0 {
		return ""
	}
	contentStart := start + openEnd + 1
	end := asciiIndexFold(doc[contentStart:], "</title")
	if end < 0 {
		return ""
	}
	return strings.Join(strings.Fields(string(doc[contentStart:contentStart+end])), " ")
}

// asciiIndexFold returns the first index of sub in s, comparing bytes
// with ASCII case folding. sub must be lowercase ASCII.
func asciiIndexFold(s []byte, sub string) int {
	if len(sub) == 0 {
		return 0
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		match := true
		for j := 0; j < len(sub); j++ {
			c := s[i+j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != sub[j] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}
