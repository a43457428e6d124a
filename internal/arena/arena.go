// Package arena provides slab allocators for the simulation kernel's
// host-side scratch state: the per-relocation memo tables, lazy-binding
// bitmaps, closure walk lists, and relocation batch buffers that the
// dynamic linker allocates per mapped object, and the visit-loop frame
// stack the interpreter reuses per entry call.
//
// The kernel's allocation profile is "many small slices, one owner, one
// lifetime": a loader maps hundreds of objects and carves a handful of
// small slices per object, all of which die together with the loader
// (or, for visit buffers, are reset and refilled per visit). A slab
// arena turns that into a few large allocations carved sequentially —
// fewer GC objects, contiguous memory for the struct-of-arrays tables
// built on top, and an explicit Reset that recycles the retained slab
// so steady-state refills allocate nothing.
//
// Arenas are NOT safe for concurrent use. Each loader and interpreter
// owns its own; the job engine's ranks never share one.
package arena

// Stats counts an arena's memory accounting, in bytes. BytesInUse only
// ever grows with Make; Reset moves the retained slab's bytes from
// in-use to reused, so InUse-after-Reset counts live carved bytes only.
type Stats struct {
	// BytesInUse is the total bytes currently carved out of slabs.
	BytesInUse uint64
	// BytesReused is the cumulative bytes served from recycled slabs
	// after a Reset — allocation work the arena avoided repaying.
	BytesReused uint64
	// Slabs is the number of slab allocations made over the arena's
	// lifetime (growth events, not current slab count).
	Slabs uint64
}

// Add returns s + other, for aggregating the typed sub-arenas of a
// kernel component into one report.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		BytesInUse:  s.BytesInUse + other.BytesInUse,
		BytesReused: s.BytesReused + other.BytesReused,
		Slabs:       s.Slabs + other.Slabs,
	}
}

// minSlabElems is the default size, in elements, of a slab started
// from empty; slabs double as the arena grows so N carves cost
// O(log N) allocations. Presize replaces it for owners that know their
// demand up front.
const minSlabElems = 1024

// Of is a typed slab arena. Make carves slices from a current slab,
// allocating a doubled slab when the current one is exhausted. Reset
// retains the largest slab for reuse.
type Of[T any] struct {
	cur      []T // carve source: Make slices cur[used:]
	used     int
	retained []T // largest slab seen, recycled by Reset
	first    int // size of a slab started from empty; 0 = minSlabElems
	elemSize uint64
	stats    Stats
}

// New creates a typed arena. elemSize is the in-memory size of T in
// bytes (callers pass unsafe.Sizeof or a hand-computed size; the arena
// only uses it for Stats accounting, never for layout).
func New[T any](elemSize uint64) *Of[T] {
	if elemSize == 0 {
		elemSize = 1
	}
	return &Of[T]{elemSize: elemSize}
}

// Make returns a zeroed length-n slice carved from the arena. The
// slice is valid until the arena is garbage (there is no free); Reset
// recycles slab memory, so slices carved before a Reset must not be
// used after it.
func (a *Of[T]) Make(n int) []T {
	if n == 0 {
		return nil
	}
	if len(a.cur)-a.used < n {
		a.refill(n)
	}
	s := a.cur[a.used : a.used+n : a.used+n]
	a.used += n
	a.stats.BytesInUse += uint64(n) * a.elemSize
	return s
}

// Presize sets the size, in elements, of the slab the arena starts
// from when it holds none — its first slab, and the first after a
// Reset whose retained slab is too small — in place of the
// minSlabElems default. An owner that knows its demand before carving
// passes it, so a small workload does not carry a mostly empty minimum
// slab; growth past it still doubles. n <= 0 restores the default.
func (a *Of[T]) Presize(n int) { a.first = max(n, 0) }

// refill installs a slab with room for at least n elements: the
// retained slab when it fits (a reuse), else a fresh slab of doubled
// size (or, from empty, of the presized or default size).
func (a *Of[T]) refill(n int) {
	if len(a.retained) >= n {
		slab := a.retained
		a.retained = nil
		clear(slab)
		a.cur, a.used = slab, 0
		a.stats.BytesReused += uint64(len(slab)) * a.elemSize
		return
	}
	size := 2 * len(a.cur)
	if size == 0 {
		size = a.first
		if size == 0 {
			size = minSlabElems
		}
	}
	if n > size {
		size = n
	}
	a.cur, a.used = make([]T, size), 0
	a.stats.Slabs++
}

// Reset abandons every carved slice and retains the larger of the
// current and previously retained slabs for reuse. After Reset the
// arena serves Make from recycled memory until the workload outgrows
// the retained slab.
func (a *Of[T]) Reset() {
	a.stats.BytesInUse = 0
	if len(a.cur) > len(a.retained) {
		a.retained = a.cur
	}
	a.cur, a.used = nil, 0
}

// Stats returns the arena's accounting counters.
func (a *Of[T]) Stats() Stats { return a.stats }
