package sshx

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"

	"ntpscan/internal/freelist"
)

// readers pools the buffered readers both ends of the exchange use.
// Heap profiles put per-connection bufio.NewReader among the campaign's
// top allocation sites: every SSH probe paid for two 4 KB buffers (one
// per end) that lived for a handful of short lines.
var readers = freelist.List[*bufio.Reader]{
	New: func() *bufio.Reader { return bufio.NewReader(nil) },
}

func getReader(conn net.Conn) *bufio.Reader {
	br := readers.Get()
	br.Reset(conn)
	return br
}

func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readers.Put(br)
}

// msgHostKey is the packet type byte of our simplified host-key packet.
// Real SSH uses 20 (SSH_MSG_KEXINIT) at this point in the conversation;
// we reuse the number so packet traces look plausible.
const msgHostKey = 20

// clientID is the identification string our scanner presents. Research
// scanners identify themselves (Appendix A.2.2).
const clientID = "SSH-2.0-ntpscan_research_scanner"

// ServerOptions configures a simulated SSH server.
type ServerOptions struct {
	// ID is the full identification string, e.g.
	// "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3".
	ID string
	// HostKey is presented to every client.
	HostKey HostKey
	// Banner lines are sent before the identification string, as RFC
	// 4253 §4.2 permits.
	Banner []string
}

// ServeConn runs the server side of the exchange on conn and closes it:
// banner lines, server ID, read client ID, send host key packet.
func ServeConn(conn net.Conn, opts ServerOptions) {
	Handler(opts)(conn)
}

// Handler returns a connection handler for opts with the static part
// of the exchange — banner lines, identification string, host-key
// packet — encoded once per server rather than once per connection.
// Device hosts serve thousands of probes with identical bytes; the
// per-connection work is one write, one line read, one write.
func Handler(opts ServerOptions) func(net.Conn) {
	var pre []byte
	for _, line := range opts.Banner {
		pre = append(pre, line...)
		pre = append(pre, "\r\n"...)
	}
	pre = append(pre, opts.ID...)
	pre = append(pre, "\r\n"...)
	keyPkt := encodeHostKeyPacket(opts.HostKey)
	return func(conn net.Conn) {
		defer conn.Close()
		if _, err := conn.Write(pre); err != nil {
			return
		}
		br := getReader(conn)
		defer putReader(br)
		line, err := br.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "SSH-") {
			return
		}
		conn.Write(keyPkt)
	}
}

// encodeHostKeyPacket frames the host key as an SSH binary packet:
// uint32 length, then type byte, string key type, string key blob.
func encodeHostKeyPacket(k HostKey) []byte {
	payload := []byte{msgHostKey}
	payload = appendString(payload, []byte(k.Type))
	payload = appendString(payload, k.Blob)
	out := make([]byte, 4, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

func appendString(b, s []byte) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(s)))
	b = append(b, l[:]...)
	return append(b, s...)
}

// ScanResult is what one SSH grab yields.
type ScanResult struct {
	ID      ServerID
	HostKey *HostKey // nil if the server closed before sending one
	Banner  []string // pre-identification lines, if any
}

// Scan performs the client side on conn: read (banner lines and) the
// server ID, send our ID, read the host key packet. The caller owns conn
// and its deadlines. A server that presents a valid ID but closes before
// the key packet still yields a result with HostKey nil — zgrab records
// such partial grabs too.
func Scan(conn net.Conn) (*ScanResult, error) {
	br := getReader(conn)
	defer putReader(br)
	res := &ScanResult{}

	// RFC 4253 allows arbitrary lines before the identification string.
	for i := 0; ; i++ {
		if i > 32 {
			return nil, ErrTooManyPre
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, ErrNotSSH
		}
		line = strings.TrimRight(line, "\r\n")
		if strings.HasPrefix(line, "SSH-") {
			id, err := ParseServerID(line)
			if err != nil {
				return nil, err
			}
			res.ID = id
			break
		}
		res.Banner = append(res.Banner, line)
	}

	if _, err := io.WriteString(conn, clientID+"\r\n"); err != nil {
		return res, nil // ID grabbed; treat write failure as partial
	}

	key, err := readHostKeyPacket(br)
	if err != nil {
		if errors.Is(err, errNoHostKey) {
			return res, nil
		}
		return nil, err
	}
	res.HostKey = key
	return res, nil
}

func readHostKeyPacket(br *bufio.Reader) (*HostKey, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, errNoHostKey
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:]))
	if n < 1 || n > maxPacketBytes {
		return nil, ErrBadPacket
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, ErrBadPacket
	}
	if payload[0] != msgHostKey {
		return nil, ErrBadPacket
	}
	payload = payload[1:]
	typ, payload, err := readString(payload)
	if err != nil {
		return nil, err
	}
	blob, _, err := readString(payload)
	if err != nil {
		return nil, err
	}
	return &HostKey{Type: string(typ), Blob: blob}, nil
}

func readString(b []byte) (s, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, ErrBadPacket
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n > len(b) {
		return nil, nil, ErrBadPacket
	}
	return b[:n], b[n:], nil
}
