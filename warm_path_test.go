package pynamic

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// warmJobBytesCeiling bounds the bytes one warm job spec allocates in
// process. A warm job over a cached workload measures 246-250 KB on
// go1.24 (with and without -race, GOMAXPROCS 1-4): simulation state
// for two ranks plus result encoding. The ceiling keeps about 16%
// headroom and sits below what either regression it guards against
// costs: a 1024-entry LinkEntry slab per rank (about 150 KB each) or
// a per-job rebuild of the workload's shared symbol index (about
// 67 KB, measured at 314 KB per run).
const warmJobBytesCeiling = 288 << 10

// TestWarmSpecJobBytesPerRun pins the host-side allocation volume of
// one warm RunSpecCtx: a unique job spec (as on the serving benchmark's
// warm-jobs path, llnl at scale_div 60 and funcs_div 20, 4 tasks, 2
// simulated ranks, MPI test on) over a workload already in the cache.
// Allocation is measured as the runtime.MemStats.TotalAlloc delta over
// several runs, so it counts every byte whether or not a GC ran.
func TestWarmSpecJobBytesPerRun(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	specs := make([]Spec, runs+1)
	for i := range specs {
		specs[i] = Spec{
			Version:  SpecVersion,
			Kind:     SpecJob,
			Seed:     11,
			Workload: &WorkloadSpec{Profile: "llnl", ScaleDiv: 60, FuncsDiv: 20},
			Topology: &TopologySpec{Tasks: 4, Ranks: 2, RankSkew: 0.05 + float64(i)*0.0002, MPITest: true},
		}
	}
	ctx := context.Background()
	// The first run generates and caches the workload.
	if _, err := eng.RunSpecCtx(ctx, specs[0]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, s := range specs[1:] {
		if _, err := eng.RunSpecCtx(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("warm job spec: %d bytes per run", perRun)
	if perRun > warmJobBytesCeiling {
		t.Fatalf("warm job spec allocates %d bytes per run, ceiling %d", perRun, warmJobBytesCeiling)
	}
}

// TestEvictedWorkloadIsCollected pins that the state a job leaves on a
// cached workload (its shared symbol index) does not outlive the
// workload-cache entry: once the cache evicts a workload, nothing in
// the engine still reaches it, so it and its index are collected. A
// side registry keyed by workload would keep every workload ever run.
func TestEvictedWorkloadIsCollected(t *testing.T) {
	eng, err := New(WithWorkloadCacheSize(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	collected := make(chan struct{})
	runOn := func(seed uint64, watch bool) {
		cfg := LLNLModel().Scaled(60).ScaledFuncs(20)
		cfg.Seed = seed
		w, err := eng.GenerateCtx(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []BuildMode{Vanilla, Link} {
			if _, err := eng.RunJobCtx(ctx, JobConfig{Mode: mode, Workload: w, NTasks: 4, Ranks: 2}); err != nil {
				t.Fatal(err)
			}
		}
		if watch {
			runtime.SetFinalizer(w, func(*Workload) { close(collected) })
		}
	}
	runOn(1, true)
	runOn(2, false) // evicts the first workload
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond): // finalizers run after the GC returns
		}
	}
	t.Fatal("an evicted workload with memoized job state was never collected")
}
