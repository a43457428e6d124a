package main

import (
	"bytes"
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
	"sync"
	"syscall"
	"time"

	pynamic "repro"
	"repro/internal/histo"
	"repro/internal/jobstore"
	"repro/internal/serve"
)

// The traced server is pynamic-serve's wiring (engine with a cache
// directory, disk job store, serve.Server) with spans recorded at three
// public seams: a jobstore.Store decorator passed in as
// serve.Options.Store, an engine event sink, and a wrapper around
// serve.Handler(). It writes every span to a JSON file when SIGTERM
// drains it.

// span is one timed interval in the traced server.
type span struct {
	Layer string `json:"layer"`
	Op    string `json:"op"`
	Key   string `json:"key,omitempty"` // spec hash where known
	Info  string `json:"info,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanFile is what the traced server writes on exit.
type spanFile struct {
	Spans       []span `json:"spans"`
	Compactions int    `json:"compactions"`
	// Engine events that could not be attributed to one operation
	// because another operation of the same phase overlapped them.
	Overlapped map[string]int `json:"overlapped"`
}

type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timedStore times the jobstore.Store calls on a spec's path (Put,
// Claim, Complete) and the steal loop's List.
type timedStore struct {
	jobstore.Store
	rec *recorder
}

func (t timedStore) time(op, key string, start time.Time) {
	t.rec.add(span{Layer: "jobstore", Op: op, Key: key, Start: start.UnixNano(), End: time.Now().UnixNano()})
}

func (t timedStore) Put(j jobstore.Job) error {
	defer t.time("put", j.Hash, time.Now())
	return t.Store.Put(j)
}

func (t timedStore) List() []jobstore.Job {
	defer t.time("list", "", time.Now())
	return t.Store.List()
}

func (t timedStore) Claim(node, hash string, now time.Time, ttl time.Duration) (jobstore.Job, error) {
	defer t.time("claim", hash, time.Now())
	return t.Store.Claim(node, hash, now, ttl)
}

func (t timedStore) Complete(hash, node, status, errMsg string, now time.Time) error {
	defer t.time("complete", hash, time.Now())
	return t.Store.Complete(hash, node, status, errMsg, now)
}

// engineTracker turns the engine's event stream into spans. Events
// carry no request ID and concurrent operations interleave, so a phase
// span is kept only when no other operation of the same phase was open
// at any point during it.
type engineTracker struct {
	rec        *recorder
	mu         sync.Mutex
	open       map[string]*phaseState
	overlapped map[string]int
}

type phaseState struct {
	n       int
	tainted bool
	start   int64
	// firstRank is when the first RankDone of a lone job arrived.
	firstRank int64
}

func newEngineTracker(rec *recorder) *engineTracker {
	return &engineTracker{rec: rec, open: map[string]*phaseState{}, overlapped: map[string]int{}}
}

func (e *engineTracker) event(ev pynamic.Event) {
	now := time.Now().UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	switch ev.Kind {
	case pynamic.PhaseStart:
		st := e.open[ev.Phase]
		if st == nil {
			st = &phaseState{}
			e.open[ev.Phase] = st
		}
		if st.n > 0 {
			st.tainted = true
		} else {
			st.start, st.tainted, st.firstRank = now, false, 0
		}
		st.n++
	case pynamic.PhaseDone:
		st := e.open[ev.Phase]
		if st == nil || st.n == 0 {
			return // startup/import/visit report simulated time only
		}
		st.n--
		if st.n > 0 {
			st.tainted = true
			e.overlapped[ev.Phase]++
			return
		}
		if st.tainted {
			e.overlapped[ev.Phase]++
			return
		}
		info := ""
		if ev.Phase == "generate" && ev.CacheHit {
			info = "hit"
		}
		e.rec.add(span{Layer: "engine", Op: ev.Phase, Info: info, Start: st.start, End: now})
		if ev.Phase == "job" && st.firstRank != 0 {
			e.rec.add(span{Layer: "engine", Op: "ranks", Start: st.start, End: st.firstRank})
		}
	case pynamic.RankDone:
		if st := e.open["job"]; st != nil && st.n == 1 && !st.tainted && st.firstRank == 0 {
			st.firstRank = now
		}
	}
}

// bodyWriter keeps the start of a handler's reply for span labels.
type bodyWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (w *bodyWriter) Write(p []byte) (int, error) {
	if w.body.Len() < 512 {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// traceHandler records one span per request: POST /v1/specs as
// "submit" keyed by the answered id and labelled with its dedup kind,
// GET /v1/specs/{hash} as "poll".
func traceHandler(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &bodyWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		end := time.Now()
		s := span{Layer: "serve", Start: start.UnixNano(), End: end.UnixNano()}
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/specs":
			var rep submitReply
			_ = json.Unmarshal(sw.body.Bytes(), &rep) // an unparsable reply leaves the span unkeyed
			s.Op, s.Key, s.Info = "submit", rep.ID, rep.Dedup
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/specs/") &&
			!strings.Contains(strings.TrimPrefix(r.URL.Path, "/v1/specs/"), "/"):
			s.Op, s.Key = "poll", strings.TrimPrefix(r.URL.Path, "/v1/specs/")
		default:
			return
		}
		rec.add(s)
	})
}

// tracedServe runs the traced server until SIGTERM, then drains it and
// writes the span file.
func tracedServe(args []string) error {
	fs := flag.NewFlagSet("traced-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cacheDir := fs.String("cache-dir", "", "content store and job store directory")
	spansOut := fs.String("spans", "", "span file written on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheDir == "" || *spansOut == "" {
		return errors.New("traced-serve needs -cache-dir and -spans")
	}
	rec := &recorder{}
	tracker := newEngineTracker(rec)

	// Same engine and server options as cmd/pynamic-serve's defaults.
	hist := histo.NewRegistry()
	hist.Register("pynamic_engine_phase_sim_seconds",
		"simulated seconds per completed engine phase, by phase name", "phase", histo.SimSecondsBuckets)
	eng, err := pynamic.New(
		pynamic.WithWorkloadCacheSize(16),
		pynamic.WithPhaseObserver(func(phase string, simSec float64) {
			hist.Observe("pynamic_engine_phase_sim_seconds", phase, simSec)
		}),
		pynamic.WithCacheDir(*cacheDir),
		pynamic.WithEvents(tracker.event),
	)
	if err != nil {
		return err
	}
	disk, err := jobstore.OpenDisk(filepath.Join(*cacheDir, ".jobstore"), *addr)
	if err != nil {
		return err
	}
	sv := serve.New(eng, serve.Options{
		MaxConcurrent: 2,
		NodeID:        *addr,
		Store:         timedStore{Store: disk, rec: rec},
		Histograms:    hist,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: traceHandler(sv.Handler(), rec)}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("servebench traced-serve: listening on %s\n", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		return err
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sv.Drain(drainCtx); err != nil {
		sv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	sv.Close()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}

	rec.mu.Lock()
	tracker.mu.Lock()
	out := spanFile{
		Spans:       rec.spans,
		Compactions: disk.Compactions(),
		Overlapped:  tracker.overlapped,
	}
	tracker.mu.Unlock()
	data, err := json.Marshal(out)
	rec.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(*spansOut, data, 0o644)
}
