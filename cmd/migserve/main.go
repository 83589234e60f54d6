// Command migserve runs the HTTP optimization service: an HTTP (JSON)
// front end over the batch-optimization engine that accepts BENCH/MIG
// netlists, optimizes them with a named pass script, and returns the
// optimized netlists plus per-pass statistics.
//
// Usage:
//
//	migserve                          # listen on :8080
//	migserve -addr :9090 -concurrency 8    # 8 jobs in flight, one CPU each
//	migserve -max-body 4194304 -timeout 30s -max-timeout 2m
//	migserve -cache-file /var/lib/migserve/npn.cache -cache-snapshot 2m
//	migserve -trace-dir /tmp/traces -slow-log 2s   # per-request Chrome traces
//	migserve -pprof-addr localhost:6060            # pprof on a private listener
//
// With -cache-file the on-demand 5-input exact-synthesis store behind
// the resyn5/size5/TF5… scripts survives restarts: the snapshot is
// restored on startup (a corrupt file degrades to a cold store with a
// logged error), re-written every -cache-snapshot interval, and drained
// to disk one final time during SIGTERM shutdown.
// -synth-conflicts/-synth-gates bound each 5-input class's first-contact
// synthesis (a class that blows the budget is negative-cached once), and
// request deadlines cancel in-flight ladders without poisoning the class.
//
// The service degrades rather than dies: handler and per-job panics are
// caught, counted and answered with a 500 naming the request ID; every
// 503 (saturated pool or the admission-control watermark shedding
// requests that cannot meet their deadline) carries a Retry-After hint.
// -fault arms named failpoints for chaos testing and must never reach
// production.
// The full failure-mode table is in ARCHITECTURE.md ("Failure modes &
// degraded states").
//
// Endpoints (see internal/server and the README's HTTP API section):
//
//	POST /v1/optimize        optimize one netlist
//	POST /v1/optimize/batch  optimize many netlists in one request
//	GET  /v1/scripts         list available scripts
//	GET  /v1/stats           live per-preset QoR aggregates (JSON)
//	GET  /healthz            liveness probe
//	GET  /metrics            Prometheus-style counters
//
// Observability: every response carries a generated X-Request-ID, and
// /metrics always exposes duration histograms for requests, passes,
// exact-synthesis ladders and slot-pool waits. With -trace-dir each
// optimization request additionally writes a Chrome trace-event JSON
// named <request-id>.json (loadable in chrome://tracing or Perfetto);
// with -slow-log requests over the threshold emit one structured JSON
// log line. -pprof-addr serves net/http/pprof on a separate listener —
// keep it on localhost or behind a firewall; it is off by default and
// never shares the service port.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window, new connections are refused immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mighash/internal/db"
	"mighash/internal/fault"
	"mighash/internal/server"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("migserve: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxBody     = flag.Int64("max-body", 0, "request body byte cap (0 = 16 MiB default)")
		maxGates    = flag.Int("max-gates", 0, "netlist size cap on inputs plus gates, checked at a mig header before building (0 = default, <0 = unlimited)")
		timeout     = flag.Duration("timeout", 0, "default per-request optimization deadline (0 = 60s)")
		maxTimeout  = flag.Duration("max-timeout", 0, "cap on client-requested deadlines (0 = 5m)")
		concurrency = flag.Int("concurrency", 0, "optimization jobs in flight at once, one CPU each (0 = NumCPU)")
		cacheFile   = flag.String("cache-file", "", "persist the learned 5-input store to this snapshot file")
		cacheSnap   = flag.Duration("cache-snapshot", 0, "periodic snapshot interval (0 = 5m, <0 = shutdown-only)")
		synthConfl  = flag.Int64("synth-conflicts", 0, "per-class SAT conflict budget of 5-input exact synthesis (0 = default, <0 = unlimited)")
		synthGates  = flag.Int("synth-gates", 0, "ladder cap of 5-input exact synthesis (0 = default)")
		faultSpec   = flag.String("fault", "", "DEV ONLY: arm failpoints, e.g. 'db/snapshot-rename=return;server/shed=0.1*return' (see internal/fault)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		traceDir    = flag.String("trace-dir", "", "write one Chrome trace-event JSON per optimization request into this directory")
		slowLog     = flag.Duration("slow-log", 0, "log a structured JSON line for optimization requests slower than this (0 = off)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this separate listener (empty = off; keep it private)")
	)
	flag.Parse()

	if *faultSpec != "" {
		if err := fault.EnableSpec(*faultSpec); err != nil {
			log.Fatalf("-fault: %v", err)
		}
		log.Printf("WARNING: fault injection armed (-fault %q) — this process will deliberately fail; never use in production", *faultSpec)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			log.Fatalf("creating trace directory: %v", err)
		}
	}
	srv, err := server.New(server.Config{
		MaxBodyBytes:          *maxBody,
		MaxGates:              *maxGates,
		DefaultTimeout:        *timeout,
		MaxTimeout:            *maxTimeout,
		MaxConcurrent:         *concurrency,
		CacheFile:             *cacheFile,
		CacheSnapshotInterval: *cacheSnap,
		Synth5: db.OnDemandOptions{
			MaxConflicts: *synthConfl,
			MaxGates:     *synthGates,
		},
		TraceDir:    *traceDir,
		SlowRequest: *slowLog,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *pprofAddr != "" {
		// pprof gets its own listener and its own mux: the profiling
		// surface must never ride on the public service port, and the
		// explicit mux keeps anything else off DefaultServeMux from
		// leaking in. The listener is bound before serving starts so a
		// taken port fails loudly at startup, not silently at first use.
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("pprof listener: %v", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", pl.Addr())
			if err := http.Serve(pl, pmux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// ListenAndServe returns the moment Shutdown begins, so main must
	// wait for the drain to finish before exiting or in-flight requests
	// die with the process.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("shutting down (drain %v)", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			log.Printf("forced shutdown: %v", err)
			hs.Close()
		}
	}()
	log.Printf("listening on %s", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	// After the HTTP drain the store is quiescent: write the final
	// snapshot so the next process warm-starts from every learned class.
	if err := srv.Close(); err != nil {
		log.Printf("closing server: %v", err)
	}
}
