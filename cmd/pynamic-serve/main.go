// Command pynamic-serve exposes the Pynamic Engine over HTTP: a
// long-lived service that accepts benchmark jobs, runs them through
// the per-rank job engine on a shared workload cache, and serves
// status, results, metrics, and the experiment/scenario catalogs as
// JSON.
//
//	pynamic-serve -addr :8080 -max-concurrent 4 -cache-size 16
//
//	# with a persistent result store: a restart (or a sibling replica
//	# sharing the directory) answers already-computed specs from disk
//	pynamic-serve -addr :8080 -cache-dir /var/cache/pynamic
//
//	curl -X POST localhost:8080/v1/jobs \
//	     -d '{"mode":"link","tasks":16,"ranks":2,"scale":40,"funcs_div":10,"seed":42}'
//	curl localhost:8080/v1/jobs/j0001           # poll status → result
//	curl localhost:8080/v1/jobs/j0001/result    # canonical result JSON
//	curl -X POST localhost:8080/v1/specs \
//	     -d '{"version":1,"kind":"scenario","scenario":{"name":"nfs-cold-warm",
//	          "knobs":{"scale_div":80}}}'       # declarative spec; id = canonical hash
//	curl localhost:8080/v1/specs/<hash>         # status incl. resolved knobs
//	curl localhost:8080/v1/specs/<hash>/result  # inner canonical result JSON
//	curl localhost:8080/v1/experiments
//	curl localhost:8080/v1/scenarios            # typed knob catalog
//	curl localhost:8080/v1/metrics              # counter catalog (flat JSON)
//	curl localhost:8080/metrics                 # Prometheus text: histograms + gauges
//
// With -cache-dir the server also opens a durable job store under
// <cache-dir>/.jobstore: every accepted spec is WAL-logged before the
// 202, so a SIGKILL loses no work — the restarted server (or a sibling
// replica sharing the directory, see -peers) re-claims the interrupted
// rows at startup and logs how many it recovered.
//
//	# two-replica fleet sharing one store: spec hashes are sharded by
//	# consistent hashing, and a crashed replica's leases are stolen
//	pynamic-serve -addr :8080 -cache-dir /var/cache/pynamic \
//	              -peers http://h1:8080,http://h2:8080 -self http://h1:8080
//
// SIGINT/SIGTERM trigger a graceful drain: the server stops accepting
// new submissions (503), finishes every in-flight job, flushes the
// final /v1/metrics counters to stdout, compacts and closes the job
// store, and exits 0. A drain that outlives -drain-timeout (or a
// second signal) escalates to canceling the remaining jobs — still
// flushing metrics and exiting 0, since an operator-requested shutdown
// is not a failure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	pynamic "repro"
	"repro/internal/fleet"
	"repro/internal/histo"
	"repro/internal/jobstore"
	"repro/internal/serve"
)

// phaseHistName is the engine-phase simulated-seconds histogram family
// exported at GET /metrics.
const phaseHistName = "pynamic_engine_phase_sim_seconds"

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		maxConc   = flag.Int("max-concurrent", 2, "jobs simulating concurrently (others queue)")
		cacheSize = flag.Int("cache-size", 16, "workload cache capacity (0 disables)")
		cacheDir  = flag.String("cache-dir", "",
			"persistent content-addressed store directory; a restarted or sibling server sharing it answers already-computed specs from disk, and the durable job store lives under <dir>/.jobstore (empty disables both)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"how long a signal-triggered drain waits for in-flight jobs before canceling them")
		peers = flag.String("peers", "",
			"comma-separated base URLs of every fleet replica (including this one); enables spec-hash sharding and lease stealing (empty = standalone)")
		selfURL = flag.String("self", "",
			"this replica's base URL as peers reach it (default: http://127.0.0.1<addr> when -addr is a bare port)")
		nodeID = flag.String("node-id", "",
			"stable replica identity in the shared job store (default: the listen address); keep it stable across restarts so the replica re-claims its own interrupted work")
		leaseTTL = flag.Duration("lease-ttl", 15*time.Second,
			"how long a claimed job may go without a heartbeat before siblings may steal it")
		stealInterval = flag.Duration("steal-interval", time.Second,
			"how often the steal loop scans the job store for expired leases and orphaned queue rows")
	)
	flag.Parse()

	// The histogram registry is shared between the engine's phase
	// observer and the serve layer's request middleware; both render at
	// GET /metrics.
	hist := histo.NewRegistry()
	hist.Register(phaseHistName,
		"simulated seconds per completed engine phase, by phase name", "phase", histo.SimSecondsBuckets)

	opts := []pynamic.Option{
		pynamic.WithWorkloadCacheSize(*cacheSize),
		pynamic.WithPhaseObserver(func(phase string, simSec float64) {
			hist.Observe(phaseHistName, phase, simSec)
		}),
	}
	if *cacheDir != "" {
		opts = append(opts, pynamic.WithCacheDir(*cacheDir))
	}
	eng, err := pynamic.New(opts...)
	if err != nil {
		fatal(err)
	}

	node := *nodeID
	if node == "" {
		node = *addr
	}
	var store jobstore.Store
	jsDir := "none (in-memory job store; submissions do not survive restarts)"
	if *cacheDir != "" {
		dir := filepath.Join(*cacheDir, ".jobstore")
		disk, err := jobstore.OpenDisk(dir, node)
		if err != nil {
			fatal(fmt.Errorf("open job store %s: %w", dir, err))
		}
		store = disk
		jsDir = dir
	}

	var fl *fleet.Fleet
	if *peers != "" {
		members := strings.Split(*peers, ",")
		self := *selfURL
		if self == "" && strings.HasPrefix(*addr, ":") {
			self = "http://127.0.0.1" + *addr
		}
		fl, err = fleet.New(self, members)
		if err != nil {
			fatal(fmt.Errorf("fleet: %w", err))
		}
	}

	sv := serve.New(eng, serve.Options{
		MaxConcurrent: *maxConc,
		NodeID:        node,
		Store:         store,
		LeaseTTL:      *leaseTTL,
		StealInterval: *stealInterval,
		Histograms:    hist,
		Fleet:         fl,
	})
	defer sv.Close()

	// The drain handler goes in before the listener starts: once
	// /healthz can answer, a SIGTERM must drain, not kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: sv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	resultStore := *cacheDir
	if resultStore == "" {
		resultStore = "none"
	}
	fmt.Printf("pynamic-serve: listening on %s (max-concurrent %d, cache %d, store %s)\n",
		*addr, *maxConc, *cacheSize, resultStore)
	// The recovery path, in one line an operator can grep for: rows the
	// WAL preserved across a crash are re-claimed before the listener
	// answers, and specs whose results already landed in the
	// content-addressed store finish without re-running.
	fmt.Printf("pynamic-serve: jobstore %s; recovered %d interrupted job(s) from previous run (already-stored results are not recomputed)\n",
		jsDir, sv.Recovered())
	if fl != nil {
		fmt.Printf("pynamic-serve: fleet of %d replicas, self %s, node-id %s, lease-ttl %s\n",
			len(fl.Members()), fl.Self(), node, *leaseTTL)
	}

	select {
	case <-ctx.Done():
		stop() // restore default handling: a third signal kills us outright
		shutdown(sv, httpSrv, *drainTimeout)
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// shutdown is the graceful exit path: drain (bounded by timeout and by
// a second signal), then cancel whatever remains, flush the final
// counter state, and close the listener. It always exits 0 — the
// process was asked to stop and it stopped.
func shutdown(sv *serve.Server, httpSrv *http.Server, timeout time.Duration) {
	fmt.Println("pynamic-serve: draining (refusing new work, finishing in-flight jobs)")
	drainCtx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	drainCtx, cancelTimeout := context.WithTimeout(drainCtx, timeout)
	defer cancelTimeout()
	if err := sv.Drain(drainCtx); err != nil {
		fmt.Println("pynamic-serve: drain interrupted; canceling in-flight jobs")
	}
	// Cancel anything the drain left running (a no-op after a clean
	// drain) before tearing the listener down.
	sv.Close()

	flushMetrics(sv)

	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
	}
	fmt.Println("pynamic-serve: shutdown complete")
	os.Exit(0)
}

// flushMetrics writes the final counter catalog to stdout, so the
// numbers a scraper would have read from /v1/metrics survive the
// process (e.g. into a supervisor's log).
func flushMetrics(sv *serve.Server) {
	data, err := json.MarshalIndent(sv.Metrics(), "", "  ")
	if err != nil {
		return
	}
	fmt.Printf("pynamic-serve: final metrics\n%s\n", data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pynamic-serve:", err)
	os.Exit(1)
}
