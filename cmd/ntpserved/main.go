// Command ntpserved runs a capture-enabled SNTP server on a real UDP
// socket — the paper's modified pool-server instrumentation, usable
// against genuine clients (ntpdate/chronyd/sntp pointed at it will get
// correct time while the server logs their source addresses).
//
// Usage:
//
//	ntpserved [-listen :123] [-stratum 2] [-refid GPS] [-quiet]
//
// The address actually bound is reported on stderr (-listen 127.0.0.1:0
// lets the OS pick the port); the server runs until interrupted.
// Captured client addresses are written to stdout as JSON lines:
//
//	{"addr":"2001:db8::1","port":50000,"time":"..."}
//
// Binding port 123 requires privileges; any port works for testing
// (sntp -p 1 127.0.0.1:11123 style clients).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ntpscan/internal/ntp"
)

type captureLine struct {
	Addr string    `json:"addr"`
	Port uint16    `json:"port"`
	Time time.Time `json:"time"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntpserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen  = fs.String("listen", ":11123", "UDP listen address")
		stratum = fs.Int("stratum", 2, "reported stratum")
		refid   = fs.String("refid", "GPS", "4-byte reference ID")
		quiet   = fs.Bool("quiet", false, "suppress capture logging (serve only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Both fields are fixed-width on the wire; a value that does not
	// fit is refused, not truncated.
	if *stratum < 0 || *stratum > 255 {
		fmt.Fprintf(stderr, "ntpserved: -stratum %d does not fit the packet's one byte (0-255)\n", *stratum)
		return 2
	}
	var rid [4]byte
	if len(*refid) > len(rid) {
		fmt.Fprintf(stderr, "ntpserved: -refid %q is longer than the packet's 4 bytes\n", *refid)
		return 2
	}
	copy(rid[:], *refid)

	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "ntpserved: listen:", err)
		return 1
	}
	defer conn.Close()
	// Closing the socket is what ends Serve, on a signal as on a capture
	// line that cannot be written.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	var writeErr error
	enc := json.NewEncoder(stdout)
	srv := ntp.NewServer(ntp.ServerConfig{
		Stratum:     uint8(*stratum),
		ReferenceID: rid,
		Capture: func(client netip.AddrPort, at time.Time) {
			if *quiet || writeErr != nil {
				return
			}
			writeErr = enc.Encode(captureLine{
				Addr: client.Addr().String(),
				Port: client.Port(),
				Time: at.UTC(),
			})
			if writeErr != nil {
				conn.Close()
			}
		},
	})

	fmt.Fprintf(stderr, "ntpserved: answering SNTP on %s (stratum %d)\n",
		conn.LocalAddr(), *stratum)
	err = srv.Serve(conn)
	switch {
	case writeErr != nil:
		fmt.Fprintln(stderr, "ntpserved: write capture:", writeErr)
		return 1
	case ctx.Err() != nil:
		return 0
	}
	fmt.Fprintln(stderr, "ntpserved: serve:", err)
	return 1
}
