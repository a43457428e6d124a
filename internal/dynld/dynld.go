// Package dynld simulates the runtime dynamic linker (ld.so) whose
// behaviour the Pynamic benchmark exists to measure.
//
// It models, with simulated memory traffic and I/O:
//
//   - Program startup: mapping the executable and any pre-linked shared
//     objects, applying their load-time relocations. Objects linked at
//     build time carry pre-resolved RELATIVE data relocations (cheap
//     base+addend writes), which is why the paper's Link build starts
//     in seconds despite mapping 2 GB of DSOs.
//   - dlopen/dlclose with reference counting and RTLD_NOW semantics.
//     A fresh dlopen reads the file (through fsim), recursively loads
//     DT_NEEDED dependencies, and resolves GLOB_DAT relocations by
//     symbol search; with RTLD_NOW it also resolves JUMP_SLOT (PLT)
//     relocations.
//   - The glibc inefficiency the paper documents (§IV.A): dlopen of an
//     object that is *already* linked into the process does not respect
//     RTLD_NOW — the PLT stays lazy — yet still pays a dependency-
//     closure re-verification walk, so import is only ~3× faster than a
//     vanilla load rather than ~free.
//   - Lazy binding: the first call through an unbound PLT slot enters
//     the resolver, which performs the full search-scope symbol lookup
//     at *call* time. This is the mechanism behind the Link build's
//     100× visit-time blowup and its 3-billion-miss data-cache storm
//     (Tables I and II).
//   - LD_BIND_NOW: resolve every PLT slot of pre-linked objects at
//     startup, shifting the lazy-binding cost into startup time
//     (Table I's Link+Bind row).
//   - Optional load-address randomization (exec-shield style), which
//     §II.B.2 calls out for breaking tool scalability; used by the A3
//     ablation.
//
// Symbol lookups follow the SysV rules: walk the global search scope in
// load order, probe each object's hash table, compare names. The walk's
// memory traffic (hash buckets, symbol entries, string bytes) is issued
// against the memory simulator; the *outcome* is computed from the
// definition index so simulation stays O(1) per lookup even with
// hundreds of objects in scope.
//
// # Symbol-lookup fast path
//
// Host-side (not simulated) symbol resolution is served by a layered
// fast path so large scenario workloads stay tractable:
//
//   - The first-definer index is a flat open-addressed struct-of-arrays
//     table (see defTable) presized from the per-object hashed symbol
//     indexes of every installed image, so registering hundreds of
//     thousands of definitions never rehashes incrementally and the
//     hot defSite probe reads contiguous arrays, not map buckets.
//   - Per-object scratch (lazy-binding bitmaps, relocation memo tables)
//     and the relocation batch buffers are carved from per-loader slab
//     arenas (see internal/arena), so a rank's steady-state relocation
//     processing allocates nothing.
//   - Relocation batches are split into a resolve pass — pure read-only
//     first-definer probes, parallelizable across Options.RelocWorkers
//     goroutines — and a serial in-table-order apply pass that issues
//     all simulated traffic, so results are byte-identical at any
//     worker count.
//   - Each relocation slot memoizes its resolved definition (and, for
//     jump slots, the target function index), turning the hot
//     bound-PLT path from two hash lookups per call into two array
//     reads.
//   - The dependency-closure re-verification walk that every cached
//     dlopen pays is memoized per root object and invalidated whenever
//     the link map gains an object (a generation counter guards
//     staleness; dlclose keeps objects resident, so it cannot change
//     walk order and does not invalidate).
//   - Multi-rank jobs build the first-definer index ONCE per workload
//     (SharedIndex) and share it read-only across every rank's loader,
//     so an N-rank job costs O(work), not O(N × index-build).
//
// The fast path never changes simulated outcomes: memory traffic,
// clock time, and Stats are byte-identical with Options.NoFastPath
// set, which exists for equivalence tests and before/after benchmarks.
package dynld

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/elfimg"
	"repro/internal/fsim"
	"repro/internal/memsim"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// Flags mirror the dlopen mode argument.
type Flags uint8

const (
	// RTLDLazy defers PLT binding to first call.
	RTLDLazy Flags = iota
	// RTLDNow resolves PLT relocations at dlopen (pyMPI's import path
	// passes RTLD_NOW, §IV.A).
	RTLDNow
)

// Options configures a Loader.
type Options struct {
	// BindNow models the LD_BIND_NOW environment variable: pre-linked
	// objects resolve their PLT at startup.
	BindNow bool
	// ASLR randomizes load bases (RedHat exec-shield, §II.B.2). Off by
	// default: contiguous deterministic placement.
	ASLR bool
	// Seed drives ASLR placement.
	Seed uint64
	// NodeID selects which node's buffer cache file reads go through.
	NodeID int
	// Clients is the number of cluster nodes reading the same files
	// concurrently (an N-task job starts N processes that all map the
	// same DSOs).
	Clients int
	// NoFastPath disables the host-side symbol-lookup fast path (see
	// the package comment). Simulated results are identical either
	// way; the toggle exists for equivalence tests and benchmarks.
	// Setting it also disables a configured SharedIndex, so the
	// NoFastPath baseline exercises the full per-loader paths.
	NoFastPath bool
	// Shared, when non-nil, serves first-definer resolution from a
	// read-only index built once per workload (see SharedIndex) instead
	// of a per-loader definition map. The loader must map objects in
	// the index's canonical load order.
	Shared *SharedIndex
	// RelocWorkers sets how many goroutines resolve a relocation
	// batch's symbols (see relocateAll). Values ≤ 1 resolve serially.
	// An execution knob, not part of a run's identity: simulated
	// results are byte-identical at any worker count, because workers
	// only perform read-only first-definer probes into disjoint batch
	// slots — all simulated traffic is issued by a serial apply pass in
	// relocation-table order. Ignored under NoFastPath.
	RelocWorkers int
}

// Stats counts loader activity.
type Stats struct {
	DlopenCalls     uint64
	FreshLoads      uint64
	CachedOpens     uint64
	Dlcloses        uint64
	Lookups         uint64
	ScopeProbes     uint64 // objects probed across all lookups
	LazyResolutions uint64
	RelocsProcessed uint64
	BytesMapped     uint64
	IOSeconds       float64
}

// DefSite is a resolved symbol: the defining object and symbol index.
type DefSite struct {
	Entry    *LinkEntry
	SymIndex int
}

// LinkEntry is one object in the link map.
type LinkEntry struct {
	Image    *elfimg.Image
	Base     uint64
	Refcount int
	ScopePos int // position in the global search scope
	// Prelinked objects were linked into the executable at build time.
	Prelinked bool

	pltBound    []bool // per-reloc lazy-binding state (JUMP_SLOT only)
	gotResolved bool

	// Fast-path memos (nil when Options.NoFastPath is set).
	//
	// relocDef caches the resolved definition per relocation slot. A
	// slot's binding is final once established (real ELF semantics:
	// the GOT holds the resolved address; later dlopens never rebind
	// an existing slot), so these entries are never invalidated.
	relocDef []DefSite
	// relocFunc caches the target function index per jump slot,
	// encoded as 0 = unset, 1 = not a function, fi+2 otherwise.
	relocFunc []int32
	// closure memoizes the reverifyClosure walk rooted here, in walk
	// order; valid only while closureGen matches the loader's scopeGen
	// (mapping any new object invalidates it).
	closure    []*LinkEntry
	closureGen uint64
}

// Addr returns the absolute simulated address of offset off within
// section extent e of this object.
func (le *LinkEntry) Addr(e elfimg.Extent, off uint64) uint64 {
	return le.Base + e.Off + off
}

// Loader is the simulated dynamic linker for one process. Not safe for
// concurrent use: the simulation models one task's timeline.
type Loader struct {
	mem   memsim.Memory
	fs    *fsim.FS
	clock *simtime.Clock
	opts  Options
	rng   *xrand.RNG

	registry map[string]*elfimg.Image // installed on disk, by soname

	linkMap  []*LinkEntry
	bySoname map[string]*LinkEntry
	// defs is the NoFastPath first-definer index: the straightforward
	// Go map the fast path's flat table (below) replaced. Kept as the
	// baseline for the equivalence gates and before/after benchmarks.
	defs map[elfimg.SymID]DefSite
	// flat is the fast-path first-definer index (Shared == nil):
	// SymID → (scope position, symbol index) in struct-of-arrays form.
	flat *defTable
	// objEntries maps a SharedIndex's dense object indexes to this
	// loader's link-map entries, so shared resolution is one flat-hash
	// probe plus one array read (no soname map per lookup).
	objEntries []*LinkEntry

	// Slab arenas for per-object scratch that lives as long as the
	// loader (LinkEntry structs, lazy-binding bitmaps, relocation memo
	// tables) and, separately, for relocation batch buffers that are
	// recycled per batch. Unused (nil slices carved) under NoFastPath.
	entryArena *arena.Of[LinkEntry]
	boolArena  *arena.Of[bool]
	defArena   *arena.Of[DefSite]
	i32Arena   *arena.Of[int32]
	batchDef   *arena.Of[DefSite]
	batchOK    *arena.Of[bool]
	batchIdx   *arena.Of[int32]

	// installedSyms counts symbols across installed images; the fast
	// path presizes defs from it so registration never rehashes.
	// installedObjs and installedRelocs count installed images and
	// their relocations, which size the loader-lifetime arenas' first
	// slabs.
	installedSyms   int
	installedObjs   int
	installedRelocs int
	// scopeGen increments whenever the link map gains an object;
	// memoized scope state is valid only while its stamped generation
	// matches.
	scopeGen uint64
	// avgChain memo: chainVal is valid while chainGen == scopeGen+1
	// (the +1 keeps the zero value invalid).
	chainVal float64
	chainGen uint64

	// Kernel efficiency counters (host-side only; see KernelStats).
	relocsBatched   uint64
	parallelBatches uint64

	nextBase uint64

	// Aggregate table footprints for batched lookup traffic (see
	// lookup()): virtual zones covering all loaded symtabs etc.
	totalSymtab uint64
	totalStrtab uint64
	totalHash   uint64
	totalSyms   uint64
	totalBkts   uint64

	stats Stats
}

// Virtual zone bases for aggregate probing; far above any object base.
const (
	zoneHash   = uint64(1) << 44
	zoneSymtab = uint64(1) << 45
	zoneStrtab = uint64(1) << 46
	loadBase   = uint64(1) << 24 // first object base
	baseAlign  = uint64(1) << 16
	aslrSpan   = uint64(1) << 40
)

// Per-operation instruction cost constants (simulated CPI work). These
// are order-of-magnitude figures for glibc's ld.so paths; the shapes in
// Tables I/II come from the *memory traffic*, not from these.
const (
	instrPerProbe     = 24  // bucket fetch + chain step + compare setup
	instrPerHashByte  = 3   // SysV hash inner loop
	instrPerReloc     = 40  // rela parsing + GOT store
	instrPerMapObject = 4e4 // mmap + header parsing per object
	instrPerVerifyDep = 2e3 // soname compare + version check per dep edge
	instrResolverSave = 60  // PLT0 register save/restore

	// rejectCmpLines is the extra strtab lines a failed chain-entry
	// name compare reads past the first: generated symbol names share
	// ~200-byte prefixes, so strcmp runs deep before rejecting.
	rejectCmpLines = 3
)

func max1(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// New creates a loader issuing traffic to mem, file I/O to fs, and I/O
// seconds to clock.
func New(mem memsim.Memory, fs *fsim.FS, clock *simtime.Clock, opts Options) *Loader {
	if opts.Clients < 1 {
		opts.Clients = 1
	}
	if opts.NoFastPath {
		opts.Shared = nil
	}
	var (
		linkEntrySz = uint64(unsafe.Sizeof(LinkEntry{}))
		defSiteSz   = uint64(unsafe.Sizeof(DefSite{}))
	)
	return &Loader{
		mem:        mem,
		fs:         fs,
		clock:      clock,
		opts:       opts,
		rng:        xrand.New(opts.Seed ^ 0xd1f),
		registry:   make(map[string]*elfimg.Image),
		bySoname:   make(map[string]*LinkEntry),
		nextBase:   loadBase,
		entryArena: arena.New[LinkEntry](linkEntrySz),
		boolArena:  arena.New[bool](1),
		defArena:   arena.New[DefSite](defSiteSz),
		i32Arena:   arena.New[int32](4),
		batchDef:   arena.New[DefSite](defSiteSz),
		batchOK:    arena.New[bool](1),
		batchIdx:   arena.New[int32](4),
	}
}

// Install registers an image as present on the filesystem. It must be
// called before the image can be loaded.
func (ld *Loader) Install(img *elfimg.Image) {
	if _, dup := ld.registry[img.Name]; !dup {
		ld.installedSyms += len(img.Syms)
		ld.installedObjs++
		ld.installedRelocs += len(img.Relocs)
		// The loader-lifetime arenas carve one LinkEntry per mapped
		// object and three per-relocation tables, so the installed set
		// is their whole demand unless more images are installed later:
		// the first slabs hold exactly that, and later growth doubles.
		ld.entryArena.Presize(ld.installedObjs)
		ld.boolArena.Presize(ld.installedRelocs)
		ld.defArena.Presize(ld.installedRelocs)
		ld.i32Arena.Presize(ld.installedRelocs)
	}
	ld.registry[img.Name] = img
	ld.fs.Create(img.Path, img.FileSize())
}

// Registry returns the installed image for soname, if any.
func (ld *Loader) Registry(soname string) *elfimg.Image { return ld.registry[soname] }

// LinkMap returns the current link map in load order.
func (ld *Loader) LinkMap() []*LinkEntry { return ld.linkMap }

// Lookup finds soname in the link map.
func (ld *Loader) Lookup(soname string) *LinkEntry { return ld.bySoname[soname] }

// Stats returns accumulated counters.
func (ld *Loader) Stats() Stats { return ld.stats }

// UndefinedSymbolError reports a failed resolution.
type UndefinedSymbolError struct {
	Sym  elfimg.SymID
	From string
}

func (e *UndefinedSymbolError) Error() string {
	return fmt.Sprintf("dynld: undefined symbol %#x referenced from %s", uint64(e.Sym), e.From)
}

// NotFoundError reports a missing shared object.
type NotFoundError struct{ Soname string }

func (e *NotFoundError) Error() string {
	return "dynld: cannot open shared object file: " + e.Soname
}

// BusyError reports dlclose of an object still in use.
type BusyError struct{ Soname string }

func (e *BusyError) Error() string {
	return "dynld: object still referenced: " + e.Soname
}

// chooseBase assigns a load base for an image.
func (ld *Loader) chooseBase(img *elfimg.Image) uint64 {
	if ld.opts.ASLR {
		return loadBase + (ld.rng.Uint64n(aslrSpan/baseAlign))*baseAlign
	}
	b := ld.nextBase
	ld.nextBase += (img.MappedSize() + baseAlign - 1) &^ (baseAlign - 1)
	return b
}

// mapObject reads the file, assigns the base, and appends the object to
// the link map and the definition index. Only the mapped extent is
// paged in — .debug_* sections are never read by the runtime linker
// (debuggers read them; see toolsim), which is why program startup is
// far cheaper than tool attach in Table IV.
func (ld *Loader) mapObject(img *elfimg.Image, prelinked bool) (*LinkEntry, error) {
	secs, _, err := ld.fs.ReadBytes(ld.opts.NodeID, img.Path, img.MappedSize(), ld.opts.Clients)
	if err != nil {
		return nil, err
	}
	ld.clock.AddSeconds(secs)
	ld.stats.IOSeconds += secs
	ld.stats.FreshLoads++
	ld.stats.BytesMapped += img.MappedSize()

	var le *LinkEntry
	if ld.opts.NoFastPath {
		le = &LinkEntry{pltBound: make([]bool, len(img.Relocs))}
	} else {
		// Fast path: the entry and its per-relocation scratch are carved
		// from the loader's slab arenas — a handful of large slabs
		// instead of four GC objects per mapped object.
		le = &ld.entryArena.Make(1)[0]
		le.pltBound = ld.boolArena.Make(len(img.Relocs))
		le.relocDef = ld.defArena.Make(len(img.Relocs))
		le.relocFunc = ld.i32Arena.Make(len(img.Relocs))
	}
	le.Image = img
	le.Base = ld.chooseBase(img)
	le.Refcount = 1
	le.ScopePos = len(ld.linkMap)
	le.Prelinked = prelinked
	ld.linkMap = append(ld.linkMap, le)
	ld.bySoname[img.Name] = le
	ld.scopeGen++

	// Header/program-header parsing.
	ld.mem.Instructions(instrPerMapObject)
	ld.mem.Stream(memsim.Read, le.Base, 4096)

	// Register definitions (first definer in scope wins, SysV rules).
	// The fast path presizes the index for every installed image's
	// symbols up front, so the registration loop never pays an
	// incremental rehash of a table with 10^5+ entries. With a shared
	// index the loop is skipped entirely — the job built the index once
	// and every rank resolves against it read-only.
	switch {
	case ld.opts.Shared != nil:
		// Wire this entry into the dense object-index array so shared
		// resolution never touches a soname map.
		if ld.objEntries == nil {
			ld.objEntries = make([]*LinkEntry, ld.opts.Shared.Objects())
		}
		if oi, ok := ld.opts.Shared.objIndex(img.Name); ok {
			ld.objEntries[oi] = le
		}
	case ld.opts.NoFastPath:
		if ld.defs == nil {
			ld.defs = make(map[elfimg.SymID]DefSite)
		}
		for i, s := range img.Syms {
			if s.Local {
				continue
			}
			if _, exists := ld.defs[s.ID]; !exists {
				ld.defs[s.ID] = DefSite{Entry: le, SymIndex: i}
			}
		}
	default:
		if ld.flat == nil {
			ld.flat = newDefTable(ld.installedSyms)
		}
		for i, s := range img.Syms {
			if s.Local {
				continue
			}
			ld.flat.insert(s.ID, int32(le.ScopePos), int32(i))
		}
	}
	ld.totalSymtab += img.Layout.SymTab.Size
	ld.totalStrtab += img.Layout.StrTab.Size
	ld.totalHash += img.Layout.Hash.Size
	ld.totalSyms += uint64(len(img.Syms))
	ld.totalBkts += uint64(img.NBuckets)
	return le, nil
}

// avgChain is the expected hash-chain length across loaded objects.
// Memoized per link-map generation: the inputs only change when an
// object is mapped, and probeScope calls this once per lookup.
//
//pynamic:noalloc
func (ld *Loader) avgChain() float64 {
	if ld.chainGen == ld.scopeGen+1 {
		return ld.chainVal
	}
	c := 1.0
	if ld.totalBkts != 0 {
		c = float64(ld.totalSyms) / float64(ld.totalBkts)
		if c < 1 {
			c = 1
		}
	}
	ld.chainVal, ld.chainGen = c, ld.scopeGen+1
	return c
}

// defSite resolves symbol id to its first-in-scope definition: through
// the shared read-only index when the job configured one (turning the
// dense object index into this loader's LinkEntry via objEntries),
// through the flat per-loader table on the fast path, else through the
// NoFastPath definition map. Host-side only; issues no simulated
// traffic and performs no writes, so it is safe for the parallel
// relocation resolvers to call concurrently between batch mapping and
// batch apply.
//
//pynamic:noalloc
func (ld *Loader) defSite(id elfimg.SymID) (DefSite, bool) {
	if sh := ld.opts.Shared; sh != nil {
		oi, si, ok := sh.lookup(id)
		if !ok {
			return DefSite{}, false
		}
		le := ld.objEntries[oi]
		if le == nil {
			// The canonical definer isn't mapped yet. Under the
			// load-order invariant no earlier-in-scope definer can be
			// mapped either, so the symbol is unresolved here and now.
			return DefSite{}, false
		}
		return DefSite{Entry: le, SymIndex: int(si)}, true
	}
	if ld.flat != nil {
		sp, si, ok := ld.flat.get(id)
		if !ok {
			return DefSite{}, false
		}
		return DefSite{Entry: ld.linkMap[sp], SymIndex: int(si)}, true
	}
	def, ok := ld.defs[id]
	return def, ok
}

// lookup resolves symbol id as referenced from object `from`, modelling
// the scope walk's memory traffic. Traffic against the objects probed
// *before* the definer is issued as batched random probes into the
// aggregate hash/symtab/strtab zones (statistically identical to
// per-object probes and O(1) per lookup); the defining object's chain
// walk and name compare are issued against its real addresses.
//
//pynamic:noalloc
func (ld *Loader) lookup(from *LinkEntry, id elfimg.SymID) (DefSite, error) {
	def, ok := ld.defSite(id)
	if err := ld.lookupTraffic(from, id, def, ok); err != nil {
		return DefSite{}, err
	}
	return def, nil
}

// lookupTraffic issues the scope-walk traffic and stats for a lookup
// whose outcome (def, ok) was already resolved host-side — either just
// now by lookup, or earlier by a parallel relocation resolve pass. It
// is the single source of lookup traffic, so batched and unbatched
// resolution are byte-identical by construction.
//
//pynamic:noalloc
func (ld *Loader) lookupTraffic(from *LinkEntry, id elfimg.SymID, def DefSite, ok bool) error {
	ld.stats.Lookups++
	if !ok {
		// Unsuccessful lookup walks the *entire* scope before failing.
		ld.probeScope(len(ld.linkMap), 0)
		return &UndefinedSymbolError{Sym: id, From: from.Image.Name}
	}

	// Hash the name once (requester-side): streams the name bytes from
	// the requester's own string table at the symbol's offset.
	nameLen := uint64(def.Entry.Image.Syms[def.SymIndex].NameLen)
	ld.mem.Instructions(uint64(instrPerHashByte) * nameLen)
	strOff := (uint64(def.SymIndex) * nameLen) % max1(from.Image.Layout.StrTab.Size, 1)
	ld.mem.Stream(memsim.Read,
		from.Addr(from.Image.Layout.StrTab, strOff), nameLen)

	// Probe every object ahead of the definer in scope (all misses).
	// Rejecting a candidate costs a string compare; the generator's
	// names are long with large shared prefixes ("module_NNN_fn..."),
	// so a reject reads several cache lines before the first
	// distinguishing byte, not just one.
	ld.probeScope(def.Entry.ScopePos, rejectCmpLines)

	// Definer: real bucket + chain walk + full name compare.
	img := def.Entry.Image
	chain := img.ChainLen(def.SymIndex)
	ld.stats.ScopeProbes++
	ld.mem.Instructions(uint64(instrPerProbe * (chain + 1)))
	ld.mem.Touch(memsim.Read, def.Entry.Addr(img.Layout.Hash, 0), 8)
	for c := 0; c < chain; c++ {
		off := uint64(def.SymIndex) * 24 // chain neighbours share locality
		ld.mem.Touch(memsim.Read, def.Entry.Addr(img.Layout.SymTab, off), 24)
	}
	ld.mem.Stream(memsim.Read, def.Entry.Addr(img.Layout.StrTab, 0), nameLen)
	return nil
}

// probeScope issues the aggregate traffic for probing n objects that do
// NOT define the symbol: each probe reads a hash bucket, walks an
// average-length chain of symbol entries, and rejects each candidate
// after a short string compare. extraLines adds per-probe strtab lines
// (0 = the common fast reject on the first bytes).
//
//pynamic:noalloc
func (ld *Loader) probeScope(n int, extraLines uint64) {
	if n <= 0 {
		return
	}
	ld.stats.ScopeProbes += uint64(n)
	chain := ld.avgChain()
	probes := uint64(float64(n) * chain)
	if probes == 0 {
		probes = uint64(n)
	}
	ld.mem.Instructions(uint64(n*instrPerProbe) + probes*instrPerProbe)
	// Bucket heads: one touch per object probed.
	if ld.totalHash > 0 {
		ld.mem.Probe(memsim.Read, zoneHash, ld.totalHash, uint64(n))
	}
	// Chain entries in symbol tables.
	if ld.totalSymtab > 0 {
		ld.mem.Probe(memsim.Read, zoneSymtab, ld.totalSymtab, probes)
	}
	// Rejecting string compares: first line of each candidate's name.
	if ld.totalStrtab > 0 {
		ld.mem.Probe(memsim.Read, zoneStrtab, ld.totalStrtab, probes*(1+extraLines))
	}
}

// relocate processes one object's relocation table with interleaved
// resolve-and-apply: the NoFastPath baseline. Data (GLOB_DAT)
// relocations always resolve; JUMP_SLOT relocations resolve only when
// eager is true, otherwise the slots stay lazy. Prelinked objects have
// their data relocations pre-resolved to RELATIVE form: a base+addend
// store with no symbol search. The fast path processes whole batches
// through relocateAll instead.
func (ld *Loader) relocate(le *LinkEntry, eager bool) error {
	img := le.Image
	// Stream the relocation table itself.
	ld.mem.Stream(memsim.Read, le.Addr(img.Layout.Rel, 0), img.Layout.Rel.Size)
	for i, r := range img.Relocs {
		slot := le.Addr(img.Layout.GOT, gotSlotOff(i))
		switch {
		case r.Type == elfimg.RelocGOTData && le.Prelinked:
			// RELATIVE: write the slot, no lookup.
			ld.mem.Instructions(instrPerReloc / 4)
			ld.mem.Touch(memsim.Write, slot, 8)
			ld.stats.RelocsProcessed++
		case r.Type == elfimg.RelocGOTData:
			ld.mem.Instructions(instrPerReloc)
			def, err := ld.lookup(le, r.Sym)
			if err != nil {
				return err
			}
			le.memoizeReloc(i, def)
			ld.mem.Touch(memsim.Write, slot, 8)
			ld.stats.RelocsProcessed++
		case r.Type == elfimg.RelocJumpSlot && eager:
			ld.mem.Instructions(instrPerReloc)
			def, err := ld.lookup(le, r.Sym)
			if err != nil {
				return err
			}
			le.memoizeReloc(i, def)
			ld.mem.Touch(memsim.Write, slot, 8)
			le.pltBound[i] = true
			ld.stats.RelocsProcessed++
		default:
			// Lazy JUMP_SLOT: point the slot at PLT0 (a write, no search).
			ld.mem.Instructions(instrPerReloc / 4)
			ld.mem.Touch(memsim.Write, slot, 8)
		}
	}
	le.gotResolved = true
	return nil
}

// relocNeedsLookup reports whether a relocation of type t resolves by
// symbol search during relocation processing (as opposed to a plain
// slot write): non-prelinked GLOB_DAT always, JUMP_SLOT only under
// eager binding.
func relocNeedsLookup(t elfimg.RelocType, prelinked, eager bool) bool {
	switch t {
	case elfimg.RelocGOTData:
		return !prelinked
	case elfimg.RelocJumpSlot:
		return eager
	}
	return false
}

// minParallelRelocs is the smallest per-worker share of a relocation
// batch worth a goroutine; below it, spawn overhead beats the pure
// table probes being parallelized.
const minParallelRelocs = 256

// relocateAll processes a batch of freshly mapped objects (in load
// order) on the fast path in two passes:
//
//  1. Resolve: collect every slot that needs a symbol search into flat
//     batch buffers (recycled from slab arenas — steady state
//     allocates nothing) and resolve them with defSite, which is pure
//     and read-only once the batch is mapped. With RelocWorkers > 1
//     the batch is split into contiguous chunks resolved
//     concurrently; workers write only their own disjoint slots.
//  2. Apply: walk the relocation tables serially in exact load/table
//     order, issuing all simulated traffic and stats through the same
//     lookupTraffic the unbatched path uses.
//
// Because resolution has no simulated side effects and apply order is
// fixed, results are byte-identical at any worker count — and to the
// NoFastPath baseline, which relocates object-by-object with
// interleaved resolve-and-apply.
//
//pynamic:noalloc
func (ld *Loader) relocateAll(fresh []*LinkEntry, eager bool) error {
	if ld.opts.NoFastPath {
		for _, le := range fresh {
			if err := ld.relocate(le, eager); err != nil {
				return err
			}
		}
		return nil
	}

	total := 0
	for _, le := range fresh {
		for _, r := range le.Image.Relocs {
			if relocNeedsLookup(r.Type, le.Prelinked, eager) {
				total++
			}
		}
	}
	ld.batchDef.Reset()
	ld.batchOK.Reset()
	ld.batchIdx.Reset()
	defs := ld.batchDef.Make(total)
	oks := ld.batchOK.Make(total)
	ent := ld.batchIdx.Make(total)
	rel := ld.batchIdx.Make(total)
	k := 0
	for ei, le := range fresh {
		for ri, r := range le.Image.Relocs {
			if relocNeedsLookup(r.Type, le.Prelinked, eager) {
				ent[k], rel[k] = int32(ei), int32(ri)
				k++
			}
		}
	}
	ld.resolveBatch(fresh, ent, rel, defs, oks)
	ld.relocsBatched += uint64(total)

	k = 0
	for _, le := range fresh {
		img := le.Image
		ld.mem.Stream(memsim.Read, le.Addr(img.Layout.Rel, 0), img.Layout.Rel.Size)
		for i, r := range img.Relocs {
			slot := le.Addr(img.Layout.GOT, gotSlotOff(i))
			switch {
			case r.Type == elfimg.RelocGOTData && le.Prelinked:
				ld.mem.Instructions(instrPerReloc / 4)
				ld.mem.Touch(memsim.Write, slot, 8)
				ld.stats.RelocsProcessed++
			case r.Type == elfimg.RelocGOTData:
				ld.mem.Instructions(instrPerReloc)
				def, ok := defs[k], oks[k]
				k++
				if err := ld.lookupTraffic(le, r.Sym, def, ok); err != nil {
					return err
				}
				le.memoizeReloc(i, def)
				ld.mem.Touch(memsim.Write, slot, 8)
				ld.stats.RelocsProcessed++
			case r.Type == elfimg.RelocJumpSlot && eager:
				ld.mem.Instructions(instrPerReloc)
				def, ok := defs[k], oks[k]
				k++
				if err := ld.lookupTraffic(le, r.Sym, def, ok); err != nil {
					return err
				}
				le.memoizeReloc(i, def)
				ld.mem.Touch(memsim.Write, slot, 8)
				le.pltBound[i] = true
				ld.stats.RelocsProcessed++
			default:
				// Lazy JUMP_SLOT: point the slot at PLT0 (a write, no search).
				ld.mem.Instructions(instrPerReloc / 4)
				ld.mem.Touch(memsim.Write, slot, 8)
			}
		}
		le.gotResolved = true
	}
	return nil
}

// resolveBatch fills defs/oks with the first-definer resolution of each
// indexed slot, in parallel chunks when the batch is large enough and
// RelocWorkers asks for it. Workers only read loader state (defSite is
// pure once the batch is mapped) and write disjoint slots, so the
// outcome is independent of scheduling.
func (ld *Loader) resolveBatch(fresh []*LinkEntry, ent, rel []int32, defs []DefSite, oks []bool) {
	total := len(defs)
	workers := ld.opts.RelocWorkers
	if max := total / minParallelRelocs; workers > max {
		workers = max
	}
	if workers <= 1 {
		// Serial resolve stays a direct method call: the steady-state
		// batch path allocates nothing, not even a closure.
		ld.resolveRange(fresh, ent, rel, defs, oks, 0, total)
		return
	}
	ld.parallelBatches++
	chunk := (total + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ld.resolveRange(fresh, ent, rel, defs, oks, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// resolveRange resolves the [lo, hi) slice of a relocation batch. Reads
// only immutable loader state and writes only its own defs/oks slots.
//
//pynamic:noalloc
func (ld *Loader) resolveRange(fresh []*LinkEntry, ent, rel []int32, defs []DefSite, oks []bool, lo, hi int) {
	for k := lo; k < hi; k++ {
		le := fresh[ent[k]]
		defs[k], oks[k] = ld.defSite(le.Image.Relocs[rel[k]].Sym)
	}
}

// gotSlotOff returns the GOT offset of relocation slot i (past the
// three reserved header entries).
//
//pynamic:noalloc
func gotSlotOff(i int) uint64 { return 3*8 + uint64(i)*8 }

// memoizeReloc records the final binding of relocation slot i. A slot
// binds at most once (the GOT then holds the resolved address), so the
// memo needs no invalidation.
//
//pynamic:noalloc
func (le *LinkEntry) memoizeReloc(i int, def DefSite) {
	if le.relocDef != nil {
		le.relocDef[i] = def
	}
}

// mapBFS maps the given root objects and their DT_NEEDED closure
// breadth-first — the order glibc's _dl_map_object_deps produces, which
// determines search-scope positions (direct dependencies come before
// transitive ones). It returns the freshly mapped entries in load
// order. Roots already in the link map only get a refcount bump.
func (ld *Loader) mapBFS(roots []string, prelinked bool) ([]*LinkEntry, error) {
	var fresh, queue []*LinkEntry
	for _, soname := range roots {
		if le, ok := ld.bySoname[soname]; ok {
			le.Refcount++
			continue
		}
		img, ok := ld.registry[soname]
		if !ok {
			return nil, &NotFoundError{Soname: soname}
		}
		le, err := ld.mapObject(img, prelinked)
		if err != nil {
			return nil, err
		}
		fresh = append(fresh, le)
		queue = append(queue, le)
	}
	for len(queue) > 0 {
		le := queue[0]
		queue = queue[1:]
		for _, dep := range le.Image.Deps {
			if _, ok := ld.bySoname[dep]; ok {
				continue
			}
			dimg, ok := ld.registry[dep]
			if !ok {
				return nil, fmt.Errorf("loading dependency of %s: %w",
					le.Image.Name, &NotFoundError{Soname: dep})
			}
			dle, err := ld.mapObject(dimg, prelinked)
			if err != nil {
				return nil, err
			}
			fresh = append(fresh, dle)
			queue = append(queue, dle)
		}
	}
	return fresh, nil
}

// loadWithDeps maps soname's closure and relocates the newly mapped
// objects in load order.
func (ld *Loader) loadWithDeps(soname string, eager bool, prelinked bool) (*LinkEntry, error) {
	if le, ok := ld.bySoname[soname]; ok {
		le.Refcount++
		return le, nil
	}
	fresh, err := ld.mapBFS([]string{soname}, prelinked)
	if err != nil {
		return nil, err
	}
	if err := ld.relocateAll(fresh, eager); err != nil {
		return nil, err
	}
	return ld.bySoname[soname], nil
}

// StartupExecutable models process startup for the given executable
// image (pyMPI itself): map it and resolve its load-time relocations.
func (ld *Loader) StartupExecutable(exe *elfimg.Image) (*LinkEntry, error) {
	if _, ok := ld.registry[exe.Name]; !ok {
		ld.Install(exe)
	}
	return ld.loadWithDeps(exe.Name, ld.opts.BindNow, true)
}

// StartupPrelinked models the Link build: every generated shared object
// was named on pyMPI's link line, so they are all *direct* DT_NEEDED
// dependencies of the executable and program startup maps the whole
// set in link-line order (one breadth-first pass) before processing
// load-time relocations. Under BindNow (LD_BIND_NOW) each object's PLT
// is fully resolved here too.
func (ld *Loader) StartupPrelinked(sonames []string) error {
	fresh, err := ld.mapBFS(sonames, true)
	if err != nil {
		return err
	}
	return ld.relocateAll(fresh, ld.opts.BindNow)
}

// Dlopen models the dlopen(3) call the Python import machinery makes.
func (ld *Loader) Dlopen(soname string, flags Flags) (*LinkEntry, error) {
	ld.stats.DlopenCalls++
	if le, ok := ld.bySoname[soname]; ok {
		// Already linked in. The paper's finding (§IV.A): dlopen "is
		// supposed to increase the reference count ... only", and does
		// NOT respect RTLD_NOW for objects already linked with lazy
		// binding — yet the observed import speedup was only ~3x, so a
		// closure re-verification cost remains. Model both.
		ld.stats.CachedOpens++
		le.Refcount++
		ld.reverifyClosure(le)
		return le, nil
	}
	return ld.loadWithDeps(soname, flags == RTLDNow, false)
}

// reverifyClosure models the pre-linked dlopen inefficiency: ld.so
// re-walks the object's dependency closure, re-checks sonames and
// symbol versions, and rebuilds its local scope list. Each closure
// member's hash and symbol tables are streamed (version indices live
// alongside the symbols); only the version-string corner of the string
// table is read, not the full multi-hundred-megabyte name pool — which
// is why the paper measures this path at roughly a third of a full
// load, not near-zero and not equal.
//
// The walk order (hence the issued traffic) is a pure function of the
// link map, so the fast path memoizes it per root and replays the
// member list until the link map mutates again.
func (ld *Loader) reverifyClosure(root *LinkEntry) {
	if root.closure != nil && root.closureGen == ld.scopeGen {
		for _, le := range root.closure {
			ld.verifyClosureMember(le)
		}
		return
	}
	seen := map[string]bool{}
	var order []*LinkEntry
	var walk func(le *LinkEntry)
	walk = func(le *LinkEntry) {
		if seen[le.Image.Name] {
			return
		}
		seen[le.Image.Name] = true
		ld.verifyClosureMember(le)
		order = append(order, le)
		for _, dep := range le.Image.Deps {
			if d, ok := ld.bySoname[dep]; ok {
				walk(d)
			}
		}
	}
	walk(root)
	if !ld.opts.NoFastPath {
		root.closure, root.closureGen = order, ld.scopeGen
	}
}

// verifyClosureMember issues one closure member's re-verification
// traffic: dependency bookkeeping plus the hash/symbol/version reads.
func (ld *Loader) verifyClosureMember(le *LinkEntry) {
	ld.mem.Instructions(instrPerVerifyDep)
	l := le.Image.Layout
	ld.mem.Stream(memsim.Read, le.Addr(l.Hash, 0), l.Hash.Size)
	ld.mem.Stream(memsim.Read, le.Addr(l.SymTab, 0), l.SymTab.Size)
	ld.mem.Stream(memsim.Read, le.Addr(l.StrTab, 0), l.StrTab.Size/16)
}

// Dlclose drops a reference. The object is NOT unmapped at zero (glibc
// keeps objects that were part of the initial link resident); Unload
// exists separately for tests.
func (ld *Loader) Dlclose(le *LinkEntry) error {
	if le.Refcount <= 0 {
		return &BusyError{Soname: le.Image.Name}
	}
	le.Refcount--
	ld.stats.Dlcloses++
	// No scopeGen bump: dropping a reference never unmaps (glibc keeps
	// the object resident), so link-map membership — the only input to
	// the memoized closure walks — is unchanged. Any future true
	// unload path must increment scopeGen when it removes entries.
	return nil
}

// ResolvePLT is the lazy-binding resolver: the VM calls it for every
// call through PLT relocation slot relocIdx of object le. The first
// call performs the full symbol search ("the runtime has to transfer
// control to the dynamic linker whenever a function in an external
// dynamic library is first referenced", §IV.A); later calls cost one
// GOT read.
func (ld *Loader) ResolvePLT(le *LinkEntry, relocIdx int) (DefSite, error) {
	img := le.Image
	r := img.Relocs[relocIdx]
	if r.Type != elfimg.RelocJumpSlot {
		return DefSite{}, fmt.Errorf("dynld: reloc %d of %s is not a jump slot", relocIdx, img.Name)
	}
	slot := le.Addr(img.Layout.GOT, gotSlotOff(relocIdx))
	// Every call reads its PLT entry and GOT slot.
	ld.mem.Touch(memsim.IFetch, le.Addr(img.Layout.PLT, 16+uint64(relocIdx)*16), 16)
	ld.mem.Touch(memsim.Read, slot, 8)
	if le.pltBound[relocIdx] {
		// Fast path: the slot's binding was memoized when it bound, so
		// the hot already-bound case is an array read, not a hash
		// lookup per call.
		if le.relocDef != nil {
			if def := le.relocDef[relocIdx]; def.Entry != nil {
				return def, nil
			}
		}
		def, ok := ld.defSite(r.Sym)
		if !ok {
			return DefSite{}, &UndefinedSymbolError{Sym: r.Sym, From: img.Name}
		}
		le.memoizeReloc(relocIdx, def)
		return def, nil
	}
	// Slow path: into the resolver.
	ld.stats.LazyResolutions++
	ld.mem.Instructions(instrResolverSave)
	def, err := ld.lookup(le, r.Sym)
	if err != nil {
		return DefSite{}, err
	}
	ld.mem.Touch(memsim.Write, slot, 8)
	le.pltBound[relocIdx] = true
	le.memoizeReloc(relocIdx, def)
	return def, nil
}

// ResolvePLTFunc is ResolvePLT plus the target *function* resolution
// the interpreter needs to continue execution in the defining object.
// The function index is memoized per slot alongside the definition, so
// steady-state cross-DSO calls cost two array reads on the host.
func (ld *Loader) ResolvePLTFunc(le *LinkEntry, relocIdx int) (DefSite, int, error) {
	def, err := ld.ResolvePLT(le, relocIdx)
	if err != nil {
		return DefSite{}, -1, err
	}
	if le.relocFunc != nil {
		if enc := le.relocFunc[relocIdx]; enc != 0 {
			return def, int(enc) - 2, nil
		}
	}
	fi := def.Entry.Image.FuncBySym(def.SymIndex)
	if le.relocFunc != nil {
		le.relocFunc[relocIdx] = int32(fi) + 2
	}
	return def, fi, nil
}

// ResolveData returns the definition a GLOB_DAT relocation was bound
// to, for VM data accesses through the GOT.
func (ld *Loader) ResolveData(le *LinkEntry, relocIdx int) (DefSite, error) {
	r := le.Image.Relocs[relocIdx]
	if r.Type != elfimg.RelocGOTData {
		return DefSite{}, fmt.Errorf("dynld: reloc %d of %s is not a data slot", relocIdx, le.Image.Name)
	}
	ld.mem.Touch(memsim.Read, le.Addr(le.Image.Layout.GOT, gotSlotOff(relocIdx)), 8)
	if le.relocDef != nil {
		if def := le.relocDef[relocIdx]; def.Entry != nil {
			return def, nil
		}
	}
	def, ok := ld.defSite(r.Sym)
	if !ok {
		return DefSite{}, &UndefinedSymbolError{Sym: r.Sym, From: le.Image.Name}
	}
	le.memoizeReloc(relocIdx, def)
	return def, nil
}

// BoundPLTCount reports how many of le's jump slots are bound (tests
// and the A1 ablation inspect binding progress).
func (le *LinkEntry) BoundPLTCount() int {
	n := 0
	for i, b := range le.pltBound {
		if b && le.Image.Relocs[i].Type == elfimg.RelocJumpSlot {
			n++
		}
	}
	return n
}
