// Command clusterd serves a cluster control plane over the wire: the
// shard lease table, fencing epochs, and rebalance rule (a
// cluster.Fabric) behind the HTTP/JSON transport, so campaign nodes
// can run as separate processes against one shared fabric endpoint.
//
// Usage:
//
//	clusterd -shards 8 -nodes 3 [-listen 127.0.0.1:0] [-lease-ttl 2]
//
// On startup it prints one JSON status line carrying the actual listen
// address (use -listen 127.0.0.1:0 to let the OS pick a port), then
// serves until interrupted. Node processes point at it with
//
//	experiments -cluster http://ADDR -node K -nodes 3 ...
//
// Each node runs a full deterministic campaign replica; the fabric
// decides only which node's submissions are authoritative, so the node
// stores are byte-identical no matter how leases move. -shards must
// match the nodes' campaign decomposition (core.Config.CollectShards,
// default 32) or their submissions are rejected as out of range.
//
// Endpoints:
//
//	POST /v1/cluster/claim       register / rejoin, returns grants
//	POST /v1/cluster/heartbeat   renew leases, returns grants
//	POST /v1/cluster/submit      offer one shard-slice (fencing gate)
//	POST /v1/cluster/release     graceful lease handover
//	GET  /metrics                Prometheus exposition (fabric + wire)
//	GET  /healthz                liveness probe
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ntpscan/internal/cluster"
	"ntpscan/internal/cluster/transport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// What one client may hold of the daemon: a request's header must
// arrive within readHeaderTimeout and the whole request (a submit body
// is one shard-slice) within readTimeout, a kept-alive connection may
// idle for idleTimeout, and a header is at most maxHeaderBytes.
const (
	readHeaderTimeout = 2 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 60 * time.Second
	maxHeaderBytes    = 16 << 10
)

// status is the single JSON line clusterd prints once it is serving.
type status struct {
	Listening string `json:"listening"`
	Shards    int    `json:"shards"`
	Nodes     int    `json:"nodes"`
	LeaseTTL  int    `json:"lease_ttl"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "127.0.0.1:0", "HTTP listen address")
		shards   = fs.Int("shards", 0, "shard count (must match the nodes' collect shards)")
		nodes    = fs.Int("nodes", 1, "campaign node count")
		leaseTTL = fs.Int("lease-ttl", 0, "slices a grant stays valid without renewal (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shards < 1 {
		fmt.Fprintln(stderr, "clusterd: -shards is required (the campaign's collect-shard count)")
		return 2
	}

	fab, err := cluster.NewFabric(*shards, cluster.Config{Nodes: *nodes, LeaseTTL: *leaseTTL})
	if err != nil {
		fmt.Fprintln(stderr, "clusterd:", err)
		return 1
	}
	wire := transport.NewServer(fab, fab.Obs)

	mux := http.NewServeMux()
	mux.Handle("/v1/cluster/", wire)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fab.Obs.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "clusterd:", err)
		return 1
	}
	json.NewEncoder(stdout).Encode(status{
		Listening: ln.Addr().String(),
		Shards:    *shards,
		Nodes:     fab.Nodes(),
		LeaseTTL:  *leaseTTL,
	})

	httpSrv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(stderr, "clusterd:", err)
		return 1
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	<-serveErr
	return 0
}
