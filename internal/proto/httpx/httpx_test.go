package httpx

import (
	"bufio"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"ntpscan/internal/netsim"
)

func pair() (net.Conn, net.Conn) {
	return netsim.NewConnPair(
		netip.MustParseAddrPort("[2001:db8::1]:40000"),
		netip.MustParseAddrPort("[2001:db8::2]:80"))
}

func doGet(t *testing.T, opts ServerOptions, host string) *Response {
	t.Helper()
	c, s := pair()
	defer c.Close()
	go ServeConn(s, opts)
	c.SetDeadline(time.Now().Add(2 * time.Second))
	resp, err := Get(c, host, "/")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	return resp
}

func TestGetTitlePage(t *testing.T) {
	resp := doGet(t, ServerOptions{Title: "FRITZ!Box", ServerHeader: "AVM"}, "")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Title(); got != "FRITZ!Box" {
		t.Fatalf("title = %q", got)
	}
	if resp.Header["Server"] != "AVM" {
		t.Fatalf("server header = %q", resp.Header["Server"])
	}
	if resp.Proto != "HTTP/1.1" {
		t.Fatalf("proto = %q", resp.Proto)
	}
}

func TestGetNoTitle(t *testing.T) {
	resp := doGet(t, ServerOptions{}, "")
	if resp.StatusCode != 200 || resp.Title() != "" {
		t.Fatalf("resp = %d title %q", resp.StatusCode, resp.Title())
	}
}

func TestGetCustomStatus(t *testing.T) {
	resp := doGet(t, ServerOptions{Title: "Login", StatusCode: 401}, "")
	if resp.StatusCode != 401 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestRequireHost(t *testing.T) {
	opts := ServerOptions{Title: "real site", RequireHost: true, HostErrorTitle: "Host Europe GmbH"}
	// Without Host: provider error page.
	resp := doGet(t, opts, "")
	if resp.StatusCode != 404 || resp.Title() != "Host Europe GmbH" {
		t.Fatalf("no-host resp = %d %q", resp.StatusCode, resp.Title())
	}
	// With Host: the real page.
	resp = doGet(t, opts, "example.org")
	if resp.StatusCode != 200 || resp.Title() != "real site" {
		t.Fatalf("host resp = %d %q", resp.StatusCode, resp.Title())
	}
}

func TestCustomBody(t *testing.T) {
	resp := doGet(t, ServerOptions{Body: "<html><head><TITLE>Welcome to nginx!</TITLE></head></html>"}, "")
	if got := resp.Title(); got != "Welcome to nginx!" {
		t.Fatalf("title = %q", got)
	}
}

func TestMalformedRequestGets400(t *testing.T) {
	c, s := pair()
	defer c.Close()
	go ServeConn(s, ServerOptions{Title: "x"})
	c.Write([]byte("NONSENSE\r\n\r\n"))
	c.SetDeadline(time.Now().Add(time.Second))
	resp, err := ReadResponse(bufioReader(c))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestPostRejected(t *testing.T) {
	c, s := pair()
	defer c.Close()
	go ServeConn(s, ServerOptions{Title: "x"})
	c.Write([]byte("POST / HTTP/1.1\r\nHost: a\r\n\r\n"))
	c.SetDeadline(time.Now().Add(time.Second))
	resp, err := ReadResponse(bufioReader(c))
	if err != nil || resp.StatusCode != 400 {
		t.Fatalf("resp = %+v %v", resp, err)
	}
}

func TestHeadHasNoBody(t *testing.T) {
	c, s := pair()
	defer c.Close()
	go ServeConn(s, ServerOptions{Title: "x"})
	c.Write([]byte("HEAD / HTTP/1.1\r\nHost: a\r\n\r\n"))
	c.SetDeadline(time.Now().Add(time.Second))
	resp, err := ReadResponse(bufioReader(c))
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("resp = %+v %v", resp, err)
	}
	if len(resp.Body) != 0 {
		t.Fatalf("HEAD body = %q", resp.Body)
	}
}

func TestExtractTitle(t *testing.T) {
	cases := []struct {
		doc, want string
	}{
		{"<html><title>Simple</title></html>", "Simple"},
		{"<TITLE>Upper</TITLE>", "Upper"},
		{`<title lang="en">Attr</title>`, "Attr"},
		{"<title>  spaced \n\t out  </title>", "spaced out"},
		{"<html><body>no title</body></html>", ""},
		{"<title>unclosed", ""},
		{"<title", ""},
		{"", ""},
		{"<title></title>", ""},
		{"<title>first</title><title>second</title>", "first"},
	}
	for _, c := range cases {
		if got := ExtractTitle(c.doc); got != c.want {
			t.Errorf("ExtractTitle(%q) = %q, want %q", c.doc, got, c.want)
		}
	}
}

func TestCanonicalHeaderNames(t *testing.T) {
	cases := map[string]string{
		"content-length": "Content-Length",
		"SERVER":         "Server",
		" x-powered-by ": "X-Powered-By",
	}
	for in, want := range cases {
		if got := canonical(in); got != want {
			t.Errorf("canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestReadResponseMalformed(t *testing.T) {
	for _, raw := range []string{
		"garbage\r\n\r\n",
		"HTTP/1.1 banana OK\r\n\r\n",
		"HTTP/1.1 99 Too Low\r\n\r\n",
	} {
		if _, err := ReadResponse(bufioReaderFromString(raw)); err == nil {
			t.Errorf("accepted %q", raw)
		}
	}
}

func TestReadResponseContentLength(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloEXTRA"
	resp, err := ReadResponse(bufioReaderFromString(raw))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "hello" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestReadResponseNoContentLength(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\n\r\neverything to eof"
	resp, err := ReadResponse(bufioReaderFromString(raw))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "everything to eof" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestStatusText(t *testing.T) {
	if statusText(200) != "OK" || statusText(404) != "Not Found" {
		t.Fatal("common codes wrong")
	}
	if statusText(299) != "Unknown" {
		t.Fatal("fallback wrong")
	}
}

func bufioReader(c net.Conn) *bufio.Reader { return bufio.NewReader(c) }
func bufioReaderFromString(s string) *bufio.Reader {
	return bufio.NewReader(strings.NewReader(s))
}

// isHostField is canonical(name) == "Host" without the string.
func TestIsHostFieldMatchesCanonical(t *testing.T) {
	for _, name := range []string{
		"Host", "host", "HOST", "hOsT", " Host\t", "Hos", "Hostt", "Ho st",
		"X-Host", "Host-", "-Host", "Ho\u017ft", "\u00a0host", "Gost", "Hosu", "",
	} {
		if got, want := isHostField([]byte(name)), canonical(name) == "Host"; got != want {
			t.Errorf("isHostField(%q) = %v, canonical says %v", name, got, want)
		}
	}
}
