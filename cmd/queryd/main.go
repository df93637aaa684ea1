// Command queryd serves a columnar scan store over HTTP/JSON: the
// paper's tables (modules, Table 2, vantages, /48 networks, the
// collection timeline) from incrementally-maintained materialized
// aggregates, plus ad-hoc predicate scans with full block-index
// pushdown and a shared decoded-block cache.
//
// Usage:
//
//	queryd -store DIR [-listen :8080] [-cache-bytes N] [-max-rows N]
//	queryd -demo-seed 42 [-store DIR] [-workers N] [...]
//
// Offline mode (-store) opens an existing store directory read-only
// (store.OpenReadOnly) — typically one a campaign sealed, or one a
// campaign is still filling — recomputes the aggregates with one full
// scan, and serves. It changes nothing in the directory: a missing
// directory, a MANIFEST.json that does not parse, or a segment that
// fails its size, checksum or footer stops it before it listens (exit
// 1, naming each). Demo mode (-demo-seed) opens the store as its writer
// (store.Open, creating it if needed) and runs a simulated campaign
// into it while serving: the aggregate tables advance at every slice
// drain and queries run against the growing store, which is the
// daemon's live-serving configuration.
//
// Endpoints:
//
//	GET /v1/tables/modules            per-module results/successes/addrs
//	GET /v1/tables/table2             the paper's Table 2
//	GET /v1/tables/vantages           per-vantage captures/addrs
//	GET /v1/tables/prefixes?n=20      top /48 networks by distinct addrs
//	GET /v1/tables/slices             collection timeline
//	GET /v1/query?...                 ad-hoc scan (kind, module, vantage,
//	                                  prefix, slice_lo/hi, limit; at
//	                                  most -max-rows rows)
//	GET /metrics                      Prometheus exposition
//
// Every JSON response carries a stats envelope: elapsed_ns, rows, and
// for scans the pruning evidence (blocks read/skipped, bytes, cache
// hits/misses).
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

	"ntpscan/internal/core"
	"ntpscan/internal/obs"
	"ntpscan/internal/query"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// What one client may hold of the daemon: a request's header must
// arrive within readHeaderTimeout and the whole request within
// readTimeout, a kept-alive connection may idle for idleTimeout, and a
// header is at most maxHeaderBytes. There is no write timeout: a scan
// reply may legitimately take long.
const (
	readHeaderTimeout = 2 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 60 * time.Second
	maxHeaderBytes    = 16 << 10
)

// status is the single JSON line queryd prints once it is serving.
type status struct {
	Listening string `json:"listening"`
	Mode      string `json:"mode"`
	Segments  int    `json:"segments"`
	Captures  int64  `json:"captures"`
	Results   int64  `json:"results"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("queryd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir        = fs.String("store", "", "store directory: read-only and existing, unless -demo-seed writes it")
		listen     = fs.String("listen", ":8080", "HTTP listen address")
		cacheBytes = fs.Int64("cache-bytes", 0, "decoded-block cache budget (0 = default, <0 disables)")
		maxRows    = fs.Int("max-rows", 0, "/v1/query row cap (0 = built-in default)")
		demoSeed   = fs.Uint64("demo-seed", 0, "run a simulated campaign into the store while serving")
		workers    = fs.Int("workers", 8, "demo campaign worker count")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := core.CheckWorldFlags(fs); err != nil {
		fmt.Fprintln(stderr, "queryd:", err)
		return 2
	}
	if *dir == "" && *demoSeed == 0 {
		fmt.Fprintln(stderr, "queryd: -store is required (or -demo-seed for a simulated campaign)")
		return 2
	}
	if *dir == "" {
		d, err := os.MkdirTemp("", "queryd-demo-*")
		if err != nil {
			fmt.Fprintln(stderr, "queryd:", err)
			return 1
		}
		defer os.RemoveAll(d)
		*dir = d
	}

	reg := obs.NewRegistry()
	openStore := store.OpenReadOnly
	if *demoSeed != 0 {
		openStore = store.Open
	}
	st, err := openStore(*dir, store.Options{Obs: reg, BlockCacheBytes: *cacheBytes})
	if err != nil {
		fmt.Fprintln(stderr, "queryd:", err)
		return 1
	}

	mode := "offline"
	agg := query.NewAggregates()
	campaignDone := make(chan error, 1)
	if *demoSeed != 0 {
		mode = "live"
		p := core.NewPipeline(core.Config{
			Seed: *demoSeed,
			World: world.Config{
				DeviceScale: 1e-3,
				AddrScale:   1e-6,
				ASScale:     0.02,
			},
			Workers:       *workers,
			CaptureBudget: 2000,
		})
		go func() {
			_, err := p.RunCampaign(ctx, core.CampaignOpts{Store: st, Aggregates: agg})
			campaignDone <- err
		}()
	} else {
		close(campaignDone)
		if agg, err = query.FromStore(st); err != nil {
			fmt.Fprintln(stderr, "queryd:", err)
			return 1
		}
	}

	srv := query.NewServer(st, agg, reg)
	srv.MaxRows = *maxRows
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "queryd:", err)
		return 1
	}

	caps, results, err := st.Rows()
	if err != nil {
		fmt.Fprintln(stderr, "queryd:", err)
		return 1
	}
	json.NewEncoder(stdout).Encode(status{
		Listening: ln.Addr().String(),
		Mode:      mode,
		Segments:  len(st.Manifest().Segments),
		Captures:  caps,
		Results:   results,
	})

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
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
		fmt.Fprintln(stderr, "queryd:", err)
		return 1
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	<-serveErr
	if cerr := <-campaignDone; cerr != nil && ctx.Err() == nil {
		fmt.Fprintln(stderr, "queryd: campaign:", cerr)
		return 1
	}
	return 0
}
