package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	pynamic "repro"
)

// reconcileTolerance is how far the sum of the layers' median self times
// may sit from the traced end-to-end median, as a share of that median.
// The parts are right-skewed, so their medians add up to less than the
// median of their sum: 10-20% less on a 2-core host. Leaving out the
// engine, or the client's detection delay, opens a wider gap than this.
const reconcileTolerance = 0.3

// Segments that tile one request's latency, in order along its critical
// path. A queued spec passes through all of them; a spec answered at
// submission (store-replay) only through send and submit.
var segmentNames = []string{
	"loadgen.send",     // client start → server handler entry; for a synchronous answer also the reply's way back
	"serve.submit",     // handler entry → jobstore Put (whole handler when there is no Put)
	"jobstore.put",     // the Put call
	"serve.queue_wait", // Put → Claim: waiting for a -max-concurrent slot
	"jobstore.claim",   // the Claim call
	"engine.exec",      // Claim → Complete: RunSpecCtx and the serve worker around it
	"jobstore.complete",
	"loadgen.detect", // Complete → the client sees done (adaptive polling)
}

// roundTrace is one traced round's per-layer figures. Time lists hold
// one value per attributable operation, in milliseconds.
type roundTrace struct {
	Segments    map[string][]float64 `json:"segments_ms"`
	Latency     []float64            `json:"joined_latency_ms"`
	Joined      int                  `json:"joined"`
	Poll        []float64            `json:"-"`
	Put         []float64            `json:"-"`
	Claim       []float64            `json:"-"`
	Complete    []float64            `json:"-"`
	List        []float64            `json:"-"`
	Generate    []float64            `json:"-"`
	JobRun      []float64            `json:"-"`
	Ranks       []float64            `json:"-"`
	MPI         []float64            `json:"-"`
	ExpandUS    []float64            `json:"-"`
	LookupUS    []float64            `json:"-"`
	Compactions int                  `json:"compactions"`
	Overlapped  map[string]int       `json:"overlapped"`
}

func ms(start, end int64) float64 { return float64(end-start) / 1e6 }

// analyzeRound joins the traced server's spans with the client's
// samples by spec hash, and times the spec and castore layers directly
// on the round's own request bodies.
func analyzeRound(ctx context.Context, spansPath, cacheDir string, w *workload, rr *roundResult) (*roundTrace, error) {
	data, err := os.ReadFile(spansPath)
	if err != nil {
		return nil, fmt.Errorf("read spans: %w", err)
	}
	var sf spanFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("decode spans: %w", err)
	}
	t := &roundTrace{Segments: map[string][]float64{}, Compactions: sf.Compactions, Overlapped: sf.Overlapped}
	byKey := map[string]map[string]span{} // op → hash → first span
	first := func(op, key string, s span) {
		m := byKey[op]
		if m == nil {
			m = map[string]span{}
			byKey[op] = m
		}
		if _, ok := m[key]; !ok {
			m[key] = s
		}
	}
	// A spec submitted twice (store-replay) has two submit spans; each
	// sample takes the one inside its own interval.
	submits := map[string][]span{}
	for _, s := range sf.Spans {
		d := ms(s.Start, s.End)
		switch s.Layer + "/" + s.Op {
		case "serve/submit":
			submits[s.Key] = append(submits[s.Key], s)
		case "serve/poll":
			t.Poll = append(t.Poll, d)
		case "jobstore/put":
			t.Put = append(t.Put, d)
			first("put", s.Key, s)
		case "jobstore/claim":
			t.Claim = append(t.Claim, d)
			first("claim", s.Key, s)
		case "jobstore/complete":
			t.Complete = append(t.Complete, d)
			first("complete", s.Key, s)
		case "jobstore/list":
			t.List = append(t.List, d)
		case "engine/generate":
			if s.Info != "hit" {
				t.Generate = append(t.Generate, d)
			}
		case "engine/job":
			t.JobRun = append(t.JobRun, d)
		case "engine/ranks":
			t.Ranks = append(t.Ranks, d)
		case "engine/mpi":
			t.MPI = append(t.MPI, d)
		}
	}

	for _, s := range rr.samples {
		if s.Err != "" {
			continue
		}
		var sub span
		for _, c := range submits[s.Hash] {
			if c.Start >= s.Start && c.End <= s.End {
				sub = c
			}
		}
		if sub.End == 0 {
			continue
		}
		seg := map[string]float64{}
		put, queued := byKey["put"][s.Hash]
		switch {
		case s.Polls == 0 && !queued:
			seg["loadgen.send"] = s.MS - ms(sub.Start, sub.End)
			seg["serve.submit"] = ms(sub.Start, sub.End)
		case queued:
			claim, ok1 := byKey["claim"][s.Hash]
			done, ok2 := byKey["complete"][s.Hash]
			if !ok1 || !ok2 {
				continue
			}
			seg["loadgen.send"] = ms(s.Start, sub.Start)
			seg["serve.submit"] = ms(sub.Start, put.Start)
			seg["jobstore.put"] = ms(put.Start, put.End)
			seg["serve.queue_wait"] = ms(put.End, claim.Start)
			seg["jobstore.claim"] = ms(claim.Start, claim.End)
			seg["engine.exec"] = ms(claim.End, done.Start)
			seg["jobstore.complete"] = ms(done.Start, done.End)
			seg["loadgen.detect"] = ms(done.End, s.End)
		default:
			continue
		}
		t.Joined++
		t.Latency = append(t.Latency, s.MS)
		for k, v := range seg {
			t.Segments[k] = append(t.Segments[k], v)
		}
	}

	// Direct timings of the spec and castore layers on this round's own
	// bodies, against the content store the round left behind.
	eng, err := pynamic.New(pynamic.WithWorkloadCacheSize(16), pynamic.WithCacheDir(cacheDir))
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, r := range w.requests {
		if seen[r.hash] {
			continue
		}
		seen[r.hash] = true
		t0 := time.Now()
		spec, err := pynamic.ParseSpec(r.body)
		if err != nil {
			return nil, err
		}
		exp, err := eng.ExpandSpec(spec)
		if err != nil {
			return nil, err
		}
		if _, err := spec.Canonical(); err != nil {
			return nil, err
		}
		t.ExpandUS = append(t.ExpandUS, float64(time.Since(t0).Nanoseconds())/1e3)
		t1 := time.Now()
		res := eng.LookupSpecResult(exp.Hash)
		t.LookupUS = append(t.LookupUS, float64(time.Since(t1).Nanoseconds())/1e3)
		if res == nil {
			return nil, fmt.Errorf("castore has no result for %s after the round", exp.Hash)
		}
	}
	return t, nil
}

// traceMetrics aggregates the traced rounds into the per-layer metrics.
// Times are medians over every attributable operation of the run;
// counts are per round.
func traceMetrics(rounds []*roundResult) (map[string]metric, []string, bool) {
	pool := func(get func(*roundTrace) []float64) []float64 {
		var out []float64
		for _, rr := range rounds {
			out = append(out, get(rr.Trace)...)
		}
		return out
	}
	m := map[string]metric{}
	timeMS := func(name string, get func(*roundTrace) []float64) {
		m[name] = metric{median(pool(get)), "ms"}
	}
	timeUS := func(name string, get func(*roundTrace) []float64) {
		m[name] = metric{median(pool(get)), "us"}
	}
	timeMS("serve.submit_ms", func(t *roundTrace) []float64 { return t.Segments["serve.submit"] })
	timeMS("serve.poll_ms", func(t *roundTrace) []float64 { return t.Poll })
	timeMS("serve.queue_wait_ms", func(t *roundTrace) []float64 { return t.Segments["serve.queue_wait"] })
	timeUS("spec.expand_us", func(t *roundTrace) []float64 { return t.ExpandUS })
	timeUS("jobstore.put_us", func(t *roundTrace) []float64 { return scale(t.Put, 1e3) })
	timeUS("jobstore.claim_us", func(t *roundTrace) []float64 { return scale(t.Claim, 1e3) })
	timeUS("jobstore.complete_us", func(t *roundTrace) []float64 { return scale(t.Complete, 1e3) })
	timeMS("jobstore.list_ms", func(t *roundTrace) []float64 { return t.List })
	timeUS("castore.lookup_us", func(t *roundTrace) []float64 { return t.LookupUS })
	timeMS("pygen.generate_ms", func(t *roundTrace) []float64 { return t.Generate })
	timeMS("job.run_ms", func(t *roundTrace) []float64 { return t.JobRun })
	timeMS("job.ranks_ms", func(t *roundTrace) []float64 { return t.Ranks })
	timeMS("mpisim.mpi_ms", func(t *roundTrace) []float64 { return t.MPI })

	// Counts are per round; the most common value is reported and the
	// rounds that differ from it are noted.
	var notes []string
	count := func(name, unit string, get func(*roundResult) float64) {
		v, drift := modeOf(name, rounds, get)
		notes = append(notes, drift...)
		m[name] = metric{v, unit}
	}
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	count("jobstore.compactions", "count", func(rr *roundResult) float64 { return float64(rr.Trace.Compactions) })
	count("castore.spec_hits", "count", func(rr *roundResult) float64 { return rr.Counts["store_spec_hits"] })
	count("castore.puts", "count", func(rr *roundResult) float64 { return rr.Counts["store_puts"] })
	count("dynld.relocs_resolved", "count", func(rr *roundResult) float64 { return rr.Counts["kernel_relocs_resolved"] })
	count("serve.dedup_share", "ratio", func(rr *roundResult) float64 {
		return share(rr.Counts["specs_deduped"], rr.Counts["specs_submitted"])
	})
	count("serve.store_dedup_share", "ratio", func(rr *roundResult) float64 {
		return share(rr.Counts["specs_store_deduped"], rr.Counts["specs_submitted"])
	})
	count("cache.workload_hit_share", "ratio", func(rr *roundResult) float64 {
		h, miss := rr.Counts["workload_cache_hits"], rr.Counts["workload_cache_misses"]
		return share(h, h+miss)
	})

	var polls, clientCPU []float64
	joined, total := 0, 0
	for _, rr := range rounds {
		polls = append(polls, float64(rr.Polls)/float64(rr.Requests))
		clientCPU = append(clientCPU, rr.ClientCPUMS)
		joined += rr.Trace.Joined
		total += rr.Requests
	}
	m["loadgen.polls_per_req"] = metric{median(polls), "count"}
	m["loadgen.client_cpu_ms_per_req"] = metric{median(clientCPU), "ms"}

	// Reconciliation: the layers' median self times against the median
	// latency of the requests they were joined for.
	lat := pool(func(t *roundTrace) []float64 { return t.Latency })
	sum := 0.0
	for _, name := range segmentNames {
		if v := pool(func(t *roundTrace) []float64 { return t.Segments[name] }); len(v) > 0 {
			sum += median(v)
			notes = append(notes, fmt.Sprintf("layer %-18s median self %.4f ms over %d", name, median(v), len(v)))
		}
	}
	gap := math.Abs(sum-median(lat)) / median(lat)
	m["trace.layer_sum_ms"] = metric{sum, "ms"}
	m["trace.reconcile_gap"] = metric{gap, "ratio"}
	m["trace.joined_share"] = metric{float64(joined) / float64(total), "ratio"}
	reconciled := gap <= reconcileTolerance && len(lat) > 0
	notes = append(notes, fmt.Sprintf("reconciliation: layer medians sum to %.4f ms, joined median latency %.4f ms, gap %.1f%% (tolerance %.0f%%): %v",
		sum, median(lat), 100*gap, 100*reconcileTolerance, reconciled))
	return m, notes, reconciled
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// median of v, 0 when empty.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile of v, 0 when empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
