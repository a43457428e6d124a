package arena

import "testing"

func TestMakeCarvesDistinctZeroedSlices(t *testing.T) {
	a := New[int](8)
	x := a.Make(10)
	y := a.Make(10)
	for i := range x {
		x[i] = i + 1
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("y[%d] = %d, want 0 (slices must not alias)", i, v)
		}
	}
	x2 := a.Make(1)
	x2[0] = 99
	if x[9] != 10 || y[9] != 0 {
		t.Fatal("later carve clobbered earlier slice")
	}
}

func TestMakeZeroLength(t *testing.T) {
	a := New[byte](1)
	if s := a.Make(0); s != nil {
		t.Fatalf("Make(0) = %v, want nil", s)
	}
	if st := a.Stats(); st.BytesInUse != 0 || st.Slabs != 0 {
		t.Fatalf("Make(0) changed stats: %+v", st)
	}
}

func TestLargeCarveGetsOwnSlab(t *testing.T) {
	a := New[uint64](8)
	big := a.Make(minSlabElems * 4)
	if len(big) != minSlabElems*4 {
		t.Fatalf("len = %d", len(big))
	}
	if st := a.Stats(); st.BytesInUse != uint64(minSlabElems*4*8) {
		t.Fatalf("BytesInUse = %d", st.BytesInUse)
	}
}

func TestResetRecyclesAndZeroes(t *testing.T) {
	a := New[int](8)
	first := a.Make(minSlabElems) // fills exactly one slab
	for i := range first {
		first[i] = 7
	}
	slabs := a.Stats().Slabs
	a.Reset()
	if st := a.Stats(); st.BytesInUse != 0 {
		t.Fatalf("BytesInUse after Reset = %d", st.BytesInUse)
	}
	again := a.Make(minSlabElems)
	st := a.Stats()
	if st.Slabs != slabs {
		t.Fatalf("Reset+Make allocated a new slab: %d -> %d", slabs, st.Slabs)
	}
	if st.BytesReused == 0 {
		t.Fatal("BytesReused not counted on recycled slab")
	}
	for i, v := range again {
		if v != 0 {
			t.Fatalf("recycled slab not zeroed at %d: %d", i, v)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	s := Stats{BytesInUse: 1, BytesReused: 2, Slabs: 3}.
		Add(Stats{BytesInUse: 10, BytesReused: 20, Slabs: 30})
	want := Stats{BytesInUse: 11, BytesReused: 22, Slabs: 33}
	if s != want {
		t.Fatalf("Add = %+v, want %+v", s, want)
	}
}

func TestSteadyStateMakeDoesNotAllocate(t *testing.T) {
	a := New[uint64](8)
	// Warm: grow the arena past the working set, then reset.
	for i := 0; i < 64; i++ {
		a.Make(256)
	}
	a.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		for i := 0; i < 32; i++ {
			a.Make(256)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset+Make allocates %.1f objects/run, want 0", allocs)
	}
}

// TestPresizeSizesFirstSlabThenDoubles pins Presize's contract: the
// first slab holds exactly the presized demand (filling it allocates
// once), and growth past it doubles from there rather than jumping to
// the default minimum.
func TestPresizeSizesFirstSlabThenDoubles(t *testing.T) {
	a := New[int](8)
	a.Presize(8)
	for i := 0; i < 8; i++ {
		a.Make(1)
	}
	if st := a.Stats(); st.Slabs != 1 || st.BytesInUse != 64 {
		t.Fatalf("after 8 carves: %+v, want 1 slab and 64 bytes in use", st)
	}
	// The ninth carve overflows the exact first slab: one doubled slab
	// (16 elements) absorbs the next 16 carves.
	for i := 0; i < 16; i++ {
		a.Make(1)
	}
	if st := a.Stats(); st.Slabs != 2 {
		t.Fatalf("after 24 carves: %d slabs, want 2 (8 then 16)", st.Slabs)
	}
	a.Make(1)
	if st := a.Stats(); st.Slabs != 3 {
		t.Fatalf("after 25 carves: %d slabs, want 3 (8, 16, 32)", st.Slabs)
	}
}

func TestPresizeZeroRestoresDefault(t *testing.T) {
	a := New[int](8)
	a.Presize(8)
	a.Presize(0)
	a.Make(1)
	for i := 1; i < minSlabElems; i++ {
		a.Make(1)
	}
	if st := a.Stats(); st.Slabs != 1 {
		t.Fatalf("default-sized arena took %d slabs for %d carves, want 1", st.Slabs, minSlabElems)
	}
}
