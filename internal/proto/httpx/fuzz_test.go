package httpx

import (
	"bufio"
	"errors"
	"io"
	"net"
	"regexp"
	"strings"
	"testing"
)

// FuzzReadResponse hardens the HTTP response parser against arbitrary
// servers.
func FuzzReadResponse(f *testing.F) {
	f.Add("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
	f.Add("HTTP/1.0 404 Not Found\r\n\r\n")
	f.Add("garbage")
	f.Add("HTTP/1.1 200 OK\r\nContent-Length: 999999999999\r\n\r\nx")
	f.Fuzz(func(t *testing.T, raw string) {
		resp, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)))
		if err != nil {
			return
		}
		if resp.StatusCode < 100 || resp.StatusCode > 599 {
			t.Fatalf("accepted status %d", resp.StatusCode)
		}
		if len(resp.Body) > maxBodyBytes {
			t.Fatalf("body of %d bytes exceeds cap", len(resp.Body))
		}
		_ = resp.Title()
	})
}

// FuzzExtractTitle must never panic and always return collapsed text.
func FuzzExtractTitle(f *testing.F) {
	f.Add("<title>ok</title>")
	f.Add("<TITLE foo=bar>x</TITLE>")
	f.Add("<title><title></title>")
	f.Fuzz(func(t *testing.T, doc string) {
		title := ExtractTitle(doc)
		if strings.ContainsAny(title, "\n\t\r") {
			t.Fatalf("title not collapsed: %q", title)
		}
	})
}

// statusLine is a well-formed HTTP/1.x status line's start.
var statusLine = regexp.MustCompile(`^HTTP/1\.[01] [1-5][0-9][0-9] `)

// FuzzServeConn hardens the device-side server against arbitrary
// requests: ServeConn must not panic, must close its end, and must
// answer anything but an empty request with a well-formed status line,
// 400 when the request line is malformed.
func FuzzServeConn(f *testing.F) {
	f.Add("GET / HTTP/1.1\r\nHost: device.example\r\n\r\n")
	f.Add("HEAD /index.html HTTP/1.0\r\n\r\n")
	f.Add("GET /\r\n\r\n")
	f.Add("GET /" + strings.Repeat("a", 9000) + " HTTP/1.1\r\n\r\n")
	f.Add("GET / HTTP/1.1\r\nHo")
	f.Fuzz(func(t *testing.T, raw string) {
		c, s := pair()
		defer c.Close()
		if _, err := io.WriteString(c, raw); err != nil {
			t.Fatal(err)
		}
		c.(interface{ CloseWrite() error }).CloseWrite() // the request ends here
		ServeConn(s, ServerOptions{Title: "t", RequireHost: true})
		if _, err := s.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("ServeConn left its end open: Write = %v", err)
		}
		reply, err := io.ReadAll(c)
		if err != nil {
			t.Fatal(err)
		}
		if raw == "" {
			if len(reply) != 0 {
				t.Fatalf("an empty request got a reply: %q", reply)
			}
			return
		}
		if !statusLine.Match(reply) {
			t.Fatalf("reply does not start with a status line: %.40q", reply)
		}
		reqLine, _, _ := strings.Cut(raw, "\n")
		parts := strings.SplitN(strings.TrimRight(reqLine, "\r\n"), " ", 3)
		if (len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/")) && string(reply[9:12]) != "400" {
			t.Fatalf("malformed request line %q answered %.12q, want 400", reqLine, reply)
		}
	})
}
