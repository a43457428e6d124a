// Command servebench is the end-to-end serving benchmark: it replays a
// fixed, seeded set of spec submissions against the unmodified
// pynamic-serve binary, started as its own process with -cache-dir
// (write-ahead-logged job store and content store on), from two
// closed-loop clients, and prints throughput, latency, server CPU and
// memory per workload, with every result it checks against an
// in-process reference.
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	sh _servebench/run.sh --workload warm-jobs --seed 1 --seconds 10 --trace 0
//
// A run is a sequence of identical rounds. Each round starts a fresh
// server on a fresh cache directory, submits the workload's request
// list, checks a seeded sample of results byte for byte, reads the
// server's /v1/metrics deltas and stops the server. Rounds repeat until
// --seconds have passed and the run holds enough samples for its p99,
// and the run reports medians over rounds. Because every round does the
// same work from the same empty state, the job store's growth costs
// (WAL compaction, steal scans) show the same way in every run.
//
// With --trace 1 the server is this binary's traced-serve mode instead:
// the same wiring with spans recorded at public seams, from which the
// run reports per-layer metrics and checks that the layers' median self
// times add up to the traced end-to-end median.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Raw per-request samples, the
// per-round figures and a host block are written under
// .bench_build/artifacts/.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	pynamic "repro"
)

// minRounds is the fewest rounds a run's medians are taken over.
const minRounds = 3

// stealLimit is the share of the host's CPU time the hypervisor may
// steal during a round's load before the round is left out of the
// medians. On a shared 2-vCPU host, steal comes in periods of minutes
// at 5-25%, slowing every round in them by as much; outside them it
// stays below 2%. The program cannot cause steal, so leaving those
// rounds out holds every commit to the same host conditions.
const stealLimit = 0.03

// maxRunTime bounds a run whose rounds are slower than expected.
const maxRunTime = 120 * time.Second

// checksPerRound is how many results each round compares byte for
// byte against the reference.
const checksPerRound = 8

type config struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "traced-serve" {
		if err := tracedServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "servebench traced-serve:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.root, "root", ".", "repository root holding .bench_build/bin")
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "how long to keep starting rounds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if cfg.seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	for _, line := range res.summary {
		fmt.Println(line)
	}
	out, err := json.Marshal(res.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runOutput struct {
	result  result
	summary []string
}

// roundResult is one round's measurements.
type roundResult struct {
	SetupS      float64            `json:"setup_s"`
	P50MS       float64            `json:"latency_p50_ms"`
	P99MS       float64            `json:"latency_p99_ms"`
	Beyond99    int                `json:"samples_beyond_p99"`
	LoadS       float64            `json:"load_s"`
	Requests    int                `json:"requests"`
	Failed      int                `json:"failed"`
	Throughput  float64            `json:"throughput_rps"`
	ServerCPUMS float64            `json:"server_cpu_ms_per_req"`
	ClientCPUMS float64            `json:"client_cpu_ms_per_req"`
	PeakRSSMB   float64            `json:"server_peak_rss_mb"`
	StealShare  float64            `json:"host_steal_share"`
	Polls       int                `json:"polls"`
	Counts      map[string]float64 `json:"counts"`
	Evicted     int                `json:"evicted_results"`
	Trace       *roundTrace        `json:"trace,omitempty"`
	samples     []sample
}

// countKeys are the /v1/metrics counters whose per-round deltas must
// repeat exactly: the workload is a fixed spec set, so a drifting count
// means something nondeterministic ran.
var countKeys = []string{
	"specs_submitted", "specs_done", "specs_deduped", "specs_store_deduped",
	"workload_cache_hits", "workload_cache_misses",
	"store_spec_hits", "store_puts", "jobstore_compactions",
	"engine_specs", "engine_jobs", "kernel_relocs_resolved",
}

func run(cfg config) (*runOutput, error) {
	w, err := buildWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(cfg.root, ".bench_build", "bin")
	serveBin := filepath.Join(bin, "pynamic-serve")
	if cfg.trace {
		if serveBin, err = os.Executable(); err != nil {
			return nil, err
		}
	}
	if _, err := os.Stat(serveBin); err != nil {
		return nil, fmt.Errorf("server binary: %w", err)
	}
	runID := fmt.Sprintf("%s-s%d-t%d-%d", cfg.workload, cfg.seed, btoi(cfg.trace), os.Getpid())
	work := filepath.Join(cfg.root, ".bench_build", "runs", runID)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	ctx := context.Background()

	// Rounds run until --seconds have passed and there are minRounds of
	// them, and on past --seconds, up to twice as long, while fewer than
	// minRounds rounds were free of host steal.
	var rounds []*roundResult
	start := time.Now()
	budget := time.Duration(cfg.seconds) * time.Second
	for r := 0; ; r++ {
		elapsed := time.Since(start)
		if r >= minRounds && elapsed >= budget && (cleanRounds(rounds) >= minRounds || elapsed >= 2*budget) ||
			r > 0 && elapsed > maxRunTime {
			break
		}
		rr, err := runRound(ctx, cfg, w, ref, hc, serveBin, filepath.Join(work, fmt.Sprintf("round-%03d", r)), r)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rounds = append(rounds, rr)
	}
	return summarize(cfg, w, rounds)
}

// runRound runs the workload once against a fresh server.
func runRound(ctx context.Context, cfg config, w *workload, ref *reference, hc *http.Client, serveBin, dir string, r int) (*roundResult, error) {
	cacheDir := filepath.Join(dir, "cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rr := &roundResult{Requests: len(w.requests)}
	t0 := time.Now()
	if len(w.prefill) > 0 {
		// Compute the replayed specs into the round's content store, as
		// an earlier server life would have; the bytes are the reference
		// the replayed answers must match.
		if err := ref.prefill(ctx, cacheDir, w.prefill); err != nil {
			return nil, err
		}
	}
	prefill := time.Since(t0)
	srv, starts, err := bringUp(cfg, serveBin, dir, hc)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	rr.SetupS = prefill.Seconds() + median(starts)

	m0, err := srv.metrics(ctx, hc)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ru0 := selfCPU()
	steal0, total0 := hostSteal()
	loadStart := time.Now()
	rr.samples = drive(ctx, hc, srv.base, w.requests)
	load := time.Since(loadStart)
	steal1, total1 := hostSteal()
	ru1 := selfCPU()
	if total1 > total0 {
		rr.StealShare = (steal1 - steal0) / (total1 - total0)
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if rr.PeakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	m1, err := srv.metrics(ctx, hc)
	if err != nil {
		return nil, err
	}
	n := float64(len(w.requests))
	rr.LoadS = load.Seconds()
	rr.Throughput = n / load.Seconds()
	rr.ServerCPUMS = (cpu1 - cpu0) * 1000 / n
	rr.ClientCPUMS = (ru1 - ru0) * 1000 / n
	rr.Counts = map[string]float64{}
	for _, k := range countKeys {
		if _, ok := m1[k]; ok {
			rr.Counts[k] = m1[k] - m0[k]
		}
	}
	for i := range rr.samples {
		rr.Polls += rr.samples[i].Polls
	}

	// Byte-compare a seeded sample of results with the reference. A
	// mismatch fails that request.
	rng := rand.New(rand.NewSource(int64(cfg.seed)*1009 + int64(r)))
	for k := 0; k < checksPerRound; k++ {
		i := rng.Intn(len(w.requests))
		s := &rr.samples[i]
		if s.Err != "" {
			continue
		}
		got, err := fetchResult(ctx, hc, srv.base, w.requests[i], &rr.Evicted)
		if err != nil {
			s.Err = "result: " + err.Error()
			continue
		}
		want, err := ref.bytes(ctx, w.requests[i])
		if err != nil {
			return nil, err
		}
		if string(got) != string(want) {
			s.Err = "result bytes differ from the reference"
			if err := keepMismatch(cfg.root, s.Hash, got, want); err != nil {
				return nil, err
			}
		}
	}
	var lat []float64
	for _, s := range rr.samples {
		if s.Err != "" {
			rr.Failed++
			continue
		}
		lat = append(lat, s.MS)
	}
	rr.P50MS, rr.P99MS = quantile(lat, 0.5), quantile(lat, 0.99)
	rr.Beyond99 = len(lat) - int(math.Ceil(0.99*float64(len(lat))))
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	if cfg.trace {
		if rr.Trace, err = analyzeRound(ctx, filepath.Join(dir, "spans.json"), cacheDir, w, rr); err != nil {
			return nil, err
		}
	}
	return rr, nil
}

// setupStarts is how many times a round starts a server: the last
// serves the round, and the earlier ones, each on an empty directory of
// its own, are killed at once. A single start takes milliseconds and
// varies with the host, so the round's set-up time is the median.
const setupStarts = 5

// bringUp starts the round's server and returns it with the time each
// of the round's starts took to answer /healthz.
func bringUp(cfg config, serveBin, dir string, hc *http.Client) (*server, []float64, error) {
	var starts []float64
	start := func(sub string) (*server, error) {
		cacheDir := filepath.Join(sub, "cache")
		if err := os.MkdirAll(cacheDir, 0o755); err != nil {
			return nil, err
		}
		args := []string{"-cache-dir", cacheDir}
		if cfg.trace {
			args = []string{"traced-serve", "-cache-dir", cacheDir, "-spans", filepath.Join(sub, "spans.json")}
		}
		t0 := time.Now()
		srv, err := startServer(serveBin, args, filepath.Join(sub, "server.log"), hc)
		starts = append(starts, time.Since(t0).Seconds())
		return srv, err
	}
	for k := 0; k < setupStarts-1; k++ {
		srv, err := start(filepath.Join(dir, fmt.Sprintf("probe-%d", k)))
		if err != nil {
			return nil, nil, err
		}
		// A probe has no work to drain, and pynamic-serve may answer
		// /healthz before it handles SIGTERM, so it is killed; its exit
		// status is always "killed".
		_ = srv.kill()
	}
	srv, err := start(dir)
	return srv, starts, err
}

// fetchResult reads a spec's result bytes. serve keeps a spec answered
// from castore (dedup "store") only in its in-memory history, with no
// jobstore row, so once the history cap evicts it GET answers 404; the
// spec is then resubmitted, which answers from castore again, and the
// eviction is counted.
func fetchResult(ctx context.Context, hc *http.Client, base string, r request, evicted *int) ([]byte, error) {
	url := base + "/v1/specs/" + r.hash + "/result"
	got, err := getBytes(ctx, hc, url)
	if !errors.Is(err, errNotFound) {
		return got, err
	}
	*evicted++
	var rep submitReply
	if code, err := postJSON(ctx, hc, base+"/v1/specs", r.body, &rep); err != nil || code != http.StatusOK || rep.Status != "done" {
		return nil, fmt.Errorf("resubmit evicted spec: HTTP %d, status %q, %v", code, rep.Status, err)
	}
	return getBytes(ctx, hc, url)
}

// keepMismatch writes both sides of a result mismatch next to the run
// artifacts for diagnosis.
func keepMismatch(root, hash string, got, want []byte) error {
	dir := filepath.Join(root, ".bench_build", "artifacts", "mismatch")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, hash+".got.json"), got, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, hash+".want.json"), want, 0o644)
}

// hostSteal reads the host's cumulative steal time and total CPU time
// (in ticks) from /proc/stat: the time the hypervisor ran something
// else on this machine's CPUs.
func hostSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// reference computes expected result bytes in-process with the public
// Engine API, formatted as serve writes them.
type reference struct {
	eng  *pynamic.Engine
	want map[string][]byte
}

func newReference() (*reference, error) {
	eng, err := pynamic.New(pynamic.WithWorkloadCacheSize(16))
	if err != nil {
		return nil, err
	}
	return &reference{eng: eng, want: map[string][]byte{}}, nil
}

func (ref *reference) bytes(ctx context.Context, r request) ([]byte, error) {
	if b, ok := ref.want[r.hash]; ok {
		return b, nil
	}
	res, err := ref.eng.RunSpecCtx(ctx, r.spec)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	b, err := payloadBytes(res)
	if err != nil {
		return nil, err
	}
	ref.want[r.hash] = b
	return b, nil
}

// prefill computes specs into a content store directory and records
// their bytes as the reference. Later rounds recompute them and must
// produce the same bytes.
func (ref *reference) prefill(ctx context.Context, cacheDir string, reqs []request) error {
	eng, err := pynamic.New(pynamic.WithWorkloadCacheSize(16), pynamic.WithCacheDir(cacheDir))
	if err != nil {
		return err
	}
	for _, r := range reqs {
		res, err := eng.RunSpecCtx(ctx, r.spec)
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		b, err := payloadBytes(res)
		if err != nil {
			return err
		}
		if prev, ok := ref.want[r.hash]; ok && string(prev) != string(b) {
			return fmt.Errorf("prefill of %s is not deterministic", r.hash)
		}
		ref.want[r.hash] = b
	}
	return nil
}

// payloadBytes renders a result the way GET /v1/specs/{hash}/result
// does: two-space-indented JSON of the payload and a newline.
func payloadBytes(res *pynamic.SpecResult) ([]byte, error) {
	b, err := json.MarshalIndent(res.Payload(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// host records where a run was measured.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	TreeSHA256 string `json:"tree_sha256"`
}

func hostBlock(root string) host {
	h := host{CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", TreeSHA256: treeDigest(root)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if _, v, ok := strings.Cut(line, ":"); ok && strings.HasPrefix(line, "model name") {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// treeDigest hashes the Go sources and module files of the tree, which
// identifies the measured code when the checkout is not a git
// repository.
func treeDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeArtifact keeps the run's raw samples and per-round figures.
func writeArtifact(cfg config, h host, rounds []*roundResult, res result) (string, error) {
	dir := filepath.Join(cfg.root, ".bench_build", "artifacts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var raw [][]sample
	for _, rr := range rounds {
		raw = append(raw, rr.samples)
	}
	doc := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"host":     h,
		"rounds":   rounds,
		"samples":  raw,
		"result":   res,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d-%s.json", cfg.workload, cfg.seed, btoi(cfg.trace),
		time.Now().UTC().Format("20060102T150405.000000000")))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// summarize turns the rounds into the run's result line: pooled
// latency percentiles and per-round medians of everything else.
func summarize(cfg config, w *workload, rounds []*roundResult) (*runOutput, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var summary []string
	for _, rr := range rounds {
		for _, s := range rr.samples {
			res.Attempted++
			if s.Err != "" {
				res.Failed++
				if res.Failed <= 5 {
					summary = append(summary, fmt.Sprintf("failed request %s: %s", s.Hash, s.Err))
				}
				continue
			}
		}
	}
	if res.Failed == res.Attempted {
		return nil, errors.New("no request succeeded")
	}
	kept := keptRounds(rounds)
	col := func(get func(*roundResult) float64) []float64 {
		out := make([]float64, len(kept))
		for i, rr := range kept {
			out[i] = get(rr)
		}
		return out
	}
	// Each round's p99 must have at least ten samples beyond it.
	beyond := rounds[0].Beyond99
	for _, rr := range rounds {
		beyond = min(beyond, rr.Beyond99)
	}
	if beyond < 10 {
		res.Correct = false
		summary = append(summary, fmt.Sprintf("a round has only %d samples beyond its p99", beyond))
	}
	drifted := 0
	for _, k := range countKeys {
		_, notes := modeOf(k, rounds, func(rr *roundResult) float64 { return rr.Counts[k] })
		drifted += len(notes)
		summary = append(summary, notes...)
	}
	e2e := map[string]metric{
		"throughput_rps":        {median(col(func(rr *roundResult) float64 { return rr.Throughput })), "1/s"},
		"latency_p50_ms":        {median(col(func(rr *roundResult) float64 { return rr.P50MS })), "ms"},
		"latency_p99_ms":        {median(col(func(rr *roundResult) float64 { return rr.P99MS })), "ms"},
		"server_cpu_ms_per_req": {median(col(func(rr *roundResult) float64 { return rr.ServerCPUMS })), "ms"},
		"server_peak_rss_mb":    {median(col(func(rr *roundResult) float64 { return rr.PeakRSSMB })), "MB"},
		"setup_s":               {median(col(func(rr *roundResult) float64 { return rr.SetupS })), "s"},
	}
	if cfg.trace {
		layers, notes, ok := traceMetrics(kept)
		summary = append(summary, notes...)
		if !ok {
			res.Correct = false
		}
		layers["counts.drifted"] = metric{float64(drifted), "count"}
		layers["host.rounds_excluded"] = metric{float64(len(rounds) - len(kept)), "count"}
		for _, k := range []string{"throughput_rps", "latency_p50_ms", "latency_p99_ms", "server_cpu_ms_per_req"} {
			layers["traced."+k] = e2e[k]
		}
		res.Metrics = layers
	} else {
		res.Metrics = e2e
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	evicted := 0
	for _, rr := range rounds {
		evicted += rr.Evicted
	}
	summary = append([]string{fmt.Sprintf("servebench %s seed %d trace %v: %d rounds of %d requests, medians over %d with host steal <= %.0f%% (at least %d samples beyond each round's p99), %d failed, %d drifted counts, %d checked results evicted from history",
		cfg.workload, cfg.seed, cfg.trace, len(rounds), len(w.requests), len(kept), 100*stealLimit, beyond, res.Failed, drifted, evicted)}, summary...)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		summary = append(summary, fmt.Sprintf("  %-32s %14.4f %s", k, res.Metrics[k].Value, res.Metrics[k].Unit))
	}
	h := hostBlock(cfg.root)
	path, err := writeArtifact(cfg, h, rounds, res)
	if err != nil {
		return nil, err
	}
	summary = append(summary, fmt.Sprintf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, tree %.12s",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.TreeSHA256),
		"raw samples: "+path)
	return &runOutput{result: res, summary: summary}, nil
}

// cleanRounds counts the rounds with host steal within stealLimit.
func cleanRounds(rounds []*roundResult) int {
	n := 0
	for _, rr := range rounds {
		if rr.StealShare <= stealLimit {
			n++
		}
	}
	return n
}

// keptRounds returns the rounds the run's medians are taken over: those
// with host steal within stealLimit, or, when fewer than minRounds are,
// the minRounds rounds with the least steal.
func keptRounds(rounds []*roundResult) []*roundResult {
	var kept []*roundResult
	for _, rr := range rounds {
		if rr.StealShare <= stealLimit {
			kept = append(kept, rr)
		}
	}
	if len(kept) >= minRounds || len(kept) == len(rounds) {
		return kept
	}
	kept = append([]*roundResult(nil), rounds...)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].StealShare < kept[j].StealShare })
	return kept[:min(minRounds, len(kept))]
}

// modeOf returns the most common per-round value of a count, and one
// note per round that differs from it. The workload is a fixed spec
// set, so a count that differs between rounds flags nondeterminism in
// the server; the note names it without failing the run, whose results
// are checked byte for byte on their own.
func modeOf(name string, rounds []*roundResult, get func(*roundResult) float64) (float64, []string) {
	freq := map[float64]int{}
	for _, rr := range rounds {
		freq[get(rr)]++
	}
	mode, best := 0.0, -1
	for v, n := range freq {
		if n > best || (n == best && v < mode) {
			mode, best = v, n
		}
	}
	var notes []string
	for i, rr := range rounds {
		if v := get(rr); v != mode {
			notes = append(notes, fmt.Sprintf("count %s drifted: round %d %g, other rounds %g", name, i, v, mode))
		}
	}
	return mode, notes
}
