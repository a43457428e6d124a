package main

import (
	"fmt"
	"math/rand"

	pynamic "repro"
)

// request is one POST /v1/specs of a round: the canonical spec body and
// the content hash the server keys it under.
type request struct {
	body []byte
	hash string
	spec pynamic.Spec
}

// workload is a fixed, seeded traffic mix. Every round of a run replays
// exactly the same request list against a fresh server and a fresh
// cache directory, so the jobstore and castore grow identically in
// every round and every run.
type workload struct {
	name string
	// requests is the round's submission order. Clients pull from it in
	// order, two at a time.
	requests []request
	// prefill lists specs the round's set-up computes in-process into the
	// round's cache directory before the server starts (store-replay).
	prefill []request
}

// Round sizes. Every round holds at least 1000 requests, so each round's
// p99 has ten samples beyond it and the run can report the median of its
// rounds' percentiles; a round's jobstore then also reaches the WAL
// compaction and steal-scan costs of a long-lived server.
const (
	warmSpecs      = 1000
	warmWorkloads  = 8 // resident: below the server's 16-entry workload cache
	coldSpecs      = 1000
	replayDistinct = 1500 // more than serve's 1000-record MaxHistory
	replayPhases   = 4
)

var workloadNames = []string{"warm-jobs", "cold-jobs", "store-replay"}

// buildWorkload derives a workload's request list from the run seed.
func buildWorkload(name string, seed uint64) (*workload, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	// Workload generator seeds are drawn from the run seed and kept
	// nonzero (0 means "profile default" in a Spec).
	genSeed := func() uint64 { return uint64(rng.Int63n(1<<40)) + 1 }
	w := &workload{name: name}
	var specs []pynamic.Spec
	switch name {
	case "warm-jobs":
		// A few workloads that stay resident in the workload cache;
		// specs differ only in rank_skew, which changes the job but not
		// the generated workload.
		seeds := make([]uint64, warmWorkloads)
		for i := range seeds {
			seeds[i] = genSeed()
		}
		for i := 0; i < warmSpecs; i++ {
			specs = append(specs, jobSpec(seeds[i%warmWorkloads], 0.05+float64(i)*0.0002, 60, 20, 4, 2))
		}
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	case "cold-jobs":
		// Every spec has a new workload seed: generate, persist and run.
		for i := 0; i < coldSpecs; i++ {
			specs = append(specs, jobSpec(genSeed(), 0.1, 60, 20, 4, 2))
		}
	case "store-replay":
		// Tiny specs over one workload, computed during set-up, in three
		// groups A, B, C of 500. The first pass submits A, B, C: every
		// answer comes from castore (dedup "store"), and serve's
		// 1000-record history keeps B and C. Each later phase resubmits
		// the newest group, still live (dedup "true"), then the group
		// evicted longest ago, from castore again, which evicts the
		// oldest group in turn. Every spec is at least 500 requests away
		// from the registration that evicts it, so each answer's source
		// does not depend on how the two clients interleave.
		base := genSeed()
		for i := 0; i < replayDistinct; i++ {
			specs = append(specs, jobSpec(base, 0.01+float64(i)*0.0001, 280, 80, 2, 1))
		}
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		prefill, err := toRequests(specs)
		if err != nil {
			return nil, err
		}
		w.prefill = prefill
		g := replayDistinct / 3
		groups := [][]pynamic.Spec{specs[:g], specs[g : 2*g], specs[2*g:]}
		for k := 0; k < replayPhases; k++ {
			specs = append(specs, groups[(k+2)%3]...)
			specs = append(specs, groups[k%3]...)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	reqs, err := toRequests(specs)
	if err != nil {
		return nil, err
	}
	w.requests = reqs
	return w, nil
}

// jobSpec is a job-kind spec over a scaled-down LLNL workload, with the
// pyMPI test phase on so every job reaches mpisim.
func jobSpec(seed uint64, skew float64, scaleDiv, funcsDiv, tasks, ranks int) pynamic.Spec {
	return pynamic.Spec{
		Version: pynamic.SpecVersion, Kind: pynamic.SpecJob, Seed: seed,
		Workload: &pynamic.WorkloadSpec{Profile: "llnl", ScaleDiv: scaleDiv, FuncsDiv: funcsDiv},
		Topology: &pynamic.TopologySpec{Tasks: tasks, Ranks: ranks, RankSkew: skew, MPITest: true},
	}
}

func toRequests(specs []pynamic.Spec) ([]request, error) {
	out := make([]request, len(specs))
	for i, s := range specs {
		body, err := s.Canonical()
		if err != nil {
			return nil, fmt.Errorf("canonical spec %d: %w", i, err)
		}
		hash, err := s.Hash()
		if err != nil {
			return nil, fmt.Errorf("hash spec %d: %w", i, err)
		}
		out[i] = request{body: body, hash: hash, spec: s}
	}
	return out, nil
}
