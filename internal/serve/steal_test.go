package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobstore"
)

// holdComplete is a job store whose first Complete blocks until
// released, pinning a server in the window between finishSpec
// committing a record and the store row turning terminal.
type holdComplete struct {
	jobstore.Store
	once    sync.Once
	held    chan struct{} // closed when the first Complete is entered
	release chan struct{}
}

func (h *holdComplete) Complete(hash, node, status, errMsg string, now time.Time) error {
	first := false
	h.once.Do(func() { first = true; close(h.held) })
	if first {
		<-h.release
	}
	return h.Store.Complete(hash, node, status, errMsg, now)
}

// TestStealSkipsOwnFinishingSpec pins that the steal loop never
// re-adopts a spec this server has just finished: while the store row
// still reads running under this node (finishSpec done, Complete not
// yet landed), a steal pass must leave it alone. Re-adopting it would
// finish the spec a second time from the result store, moving
// specs_done by 2 and store_spec_hits by 1.
func TestStealSkipsOwnFinishingSpec(t *testing.T) {
	spec, err := os.ReadFile(filepath.Join("testdata", "spec_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	store := &holdComplete{
		Store:   jobstore.NewMemory(),
		held:    make(chan struct{}),
		release: make(chan struct{}),
	}
	// The steal loop's own ticker never fires during the test; the
	// pass below is driven by hand at the one moment that matters.
	sv, ts := storeServer(t, t.TempDir(), Options{Store: store, StealInterval: time.Hour})
	id, code := submitSpecBody(t, ts, spec)
	if code != 202 {
		t.Fatalf("submit: status %d", code)
	}
	<-store.held
	if j, ok := store.Get(id); !ok || j.Status != jobstore.StatusRunning || j.Owner != sv.node {
		t.Fatalf("row during the finish window: %+v (found %v), want running under %s", j, ok, sv.node)
	}
	sv.stealOnce()
	close(store.release)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := sv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	m := sv.Metrics()
	if m["specs_done"] != 1 || m["store_spec_hits"] != 0 {
		t.Fatalf("specs_done = %v, store_spec_hits = %v; want 1 and 0 (the spec was re-adopted)",
			m["specs_done"], m["store_spec_hits"])
	}
	if j, _ := store.Get(id); j.Status != jobstore.StatusDone || j.Attempt != 1 {
		t.Fatalf("final row: status %s, attempt %d; want done after 1 attempt", j.Status, j.Attempt)
	}
}

// TestStoreAnsweredSpecSurvivesEviction pins that a spec answered from
// the result store (dedup:"store") stays answerable after history
// pruning drops its record: it has no job store row, so the lookup
// falls back to the result store, and /result serves the prefilled
// bytes unchanged.
func TestStoreAnsweredSpecSurvivesEviction(t *testing.T) {
	dir := t.TempDir()
	specA, err := os.ReadFile(filepath.Join("testdata", "spec_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	specB := []byte(strings.Replace(string(specA), `"seed": 42`, `"seed": 43`, 1))
	if bytes.Equal(specA, specB) {
		t.Fatal("second spec is identical to the first")
	}

	// Prefill: one life computes both specs into the result store.
	_, ts1 := storeServer(t, dir, Options{})
	var ids []string
	var prefill [][]byte
	for _, spec := range [][]byte{specA, specB} {
		id, code := submitSpecBody(t, ts1, spec)
		if code != 202 {
			t.Fatalf("prefill submit: status %d", code)
		}
		if st := pollSpec(t, ts1, id); st.Status != StatusDone {
			t.Fatalf("prefill run finished %s", st.Status)
		}
		ids = append(ids, id)
		prefill = append(prefill, getBytes(t, ts1, "/v1/specs/"+id+"/result"))
	}
	ts1.Close()

	// A fresh server keeping one finished record: both resubmissions
	// answer from the store, and the second evicts the first.
	_, ts2 := storeServer(t, dir, Options{MaxHistory: 1})
	for _, spec := range [][]byte{specA, specB} {
		reply, code := postSpecFull(t, ts2, spec)
		if code != 200 || reply["dedup"] != "store" {
			t.Fatalf("resubmit: status %d, reply %+v; want 200 dedup store", code, reply)
		}
	}
	got := getBytes(t, ts2, "/v1/specs/"+ids[0]+"/result")
	if !bytes.Equal(got, prefill[0]) {
		t.Fatalf("evicted spec's result drifted:\nprefill %s\nserved  %s", prefill[0], got)
	}
	st := pollSpec(t, ts2, ids[0])
	if st.ID != ids[0] || st.Status != StatusDone || st.Kind != "job" || st.Result == nil {
		t.Fatalf("evicted spec status: id %s, status %s, kind %s, result nil=%v",
			st.ID, st.Status, st.Kind, st.Result == nil)
	}
}
