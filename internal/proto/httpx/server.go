package httpx

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"

	"ntpscan/internal/freelist"
)

// serverReaders pools the per-connection buffered readers; a device
// answers one request per connection, so the reader's lifetime is one
// ServeConn call.
var serverReaders = freelist.List[*bufio.Reader]{
	New: func() *bufio.Reader { return bufio.NewReader(nil) },
}

// responseBufs pools the response assembly buffers so writeResponse
// neither grows a fresh strings.Builder nor double-copies it into a
// []byte for conn.Write.
var responseBufs = freelist.List[*[]byte]{
	New: func() *[]byte {
		b := make([]byte, 0, 512)
		return &b
	},
}

// ServerOptions describes the web interface a simulated device presents.
type ServerOptions struct {
	// Title is the HTML page title (device model pages, default pages,
	// hosting placeholders). Empty renders a titleless page.
	Title string
	// StatusCode defaults to 200.
	StatusCode int
	// ServerHeader is the Server: response header value.
	ServerHeader string
	// Body overrides the generated HTML page entirely when non-empty.
	Body string
	// RequireHost makes the server answer 404 with a provider error
	// page when the request carries no Host header (virtual-hosting
	// front ends; the "(IP) was not found" group of Table 3).
	RequireHost bool
	// HostErrorTitle is the title of the RequireHost error page.
	HostErrorTitle string
}

// statusText covers the codes the simulation emits.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 401:
		return "Unauthorized"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Unknown"
	}
}

// renderPage builds a minimal HTML document with the given title.
func renderPage(title string) string {
	if title == "" {
		return "<html><head></head><body></body></html>\n"
	}
	return fmt.Sprintf("<html><head><title>%s</title></head><body><h1>%s</h1></body></html>\n", title, title)
}

// ServeConn handles exactly one request on conn and closes it,
// Connection: close style. Malformed requests get a 400.
func ServeConn(conn net.Conn, opts ServerOptions) {
	defer conn.Close()
	br := serverReaders.Get()
	br.Reset(conn)
	defer func() {
		br.Reset(nil)
		serverReaders.Put(br)
	}()
	line, err := readLine(br)
	if err != nil {
		return
	}
	parts := strings.SplitN(string(line), " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		writeResponse(conn, 400, "", "", "<html><body>Bad Request</body></html>\n")
		return
	}
	method := parts[0]

	// Drain headers, remembering Host.
	host := ""
	for {
		line, err := readLine(br)
		if err != nil || len(line) == 0 {
			break
		}
		if name, value, ok := bytes.Cut(line, []byte(":")); ok && isHostField(name) {
			host = string(bytes.TrimSpace(value))
		}
	}

	if method != "GET" && method != "HEAD" {
		writeResponse(conn, 400, opts.ServerHeader, "", "<html><body>Bad Request</body></html>\n")
		return
	}
	if opts.RequireHost && host == "" {
		title := opts.HostErrorTitle
		if title == "" {
			title = "Unknown Domain"
		}
		writeResponse(conn, 404, opts.ServerHeader, "", renderPage(title))
		return
	}

	code := opts.StatusCode
	if code == 0 {
		code = 200
	}
	body := opts.Body
	if body == "" {
		body = renderPage(opts.Title)
	}
	if method == "HEAD" {
		body = ""
	}
	writeResponse(conn, code, opts.ServerHeader, "", body)
}

func writeResponse(conn net.Conn, code int, serverHeader, contentType, body string) {
	if contentType == "" {
		contentType = "text/html; charset=utf-8"
	}
	bp := responseBufs.Get()
	b := (*bp)[:0]
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, ' ')
	b = append(b, statusText(code)...)
	b = append(b, "\r\n"...)
	if serverHeader != "" {
		b = append(b, "Server: "...)
		b = append(b, serverHeader...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "Content-Type: "...)
	b = append(b, contentType...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\nConnection: close\r\n\r\n"...)
	b = append(b, body...)
	conn.Write(b)
	*bp = b[:0]
	responseBufs.Put(bp)
}

// isHostField reports whether a header field name canonicalises to
// "Host" (canonical(name) == "Host") without building the string: the
// name is "host" in any ASCII case, with space around it.
func isHostField(name []byte) bool {
	name = bytes.TrimSpace(name)
	return len(name) == 4 && name[0]|0x20 == 'h' && name[1]|0x20 == 'o' &&
		name[2]|0x20 == 's' && name[3]|0x20 == 't'
}

// Handler returns a netsim-compatible stream handler serving opts.
func Handler(opts ServerOptions) func(net.Conn) {
	return func(conn net.Conn) { ServeConn(conn, opts) }
}
