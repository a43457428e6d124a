// Package pygen is the Pynamic generator: it produces the synthetic
// Python extension modules and pure-C utility libraries the paper
// describes in §III, as simulated ELF images.
//
// Faithfully modelled generator features:
//
//   - "the user specifies the number of modules to generate as well as
//     the average number of functions per module. The actual number of
//     functions will vary based on a random number; a seed value can be
//     specified, allowing for reproducible results."
//   - "The function signatures vary from zero to five arguments of
//     standard C types."
//   - "Each module contains a single Python-callable entry function
//     that visits all of the module's functions up to a specifiable
//     maximum depth. Specifically, with the default maximum depth of
//     ten, the entry function calls every tenth function within that
//     module. Each function then calls the next function until a depth
//     of ten is reached."
//   - Utility libraries: "The user can specify the number of utility
//     libraries to generate as well as the average number of functions
//     per library. These utility library functions will then be called
//     at random by the Python module functions."
//   - Cross-module dependencies: "When enabled, Pynamic will also
//     generate an additional function per module that can be called by
//     other modules."
//
// The size model (symbol-name lengths, per-function text/debug bytes)
// is calibrated so the paper's LLNL-model configuration — 280 modules
// and 215 utility libraries averaging 1850 functions — reproduces the
// Pynamic column of Table III. The generator also provides a "real
// application" model matching that table's real-app column, used by the
// Table IV tool-startup comparison.
package pygen

import (
	"fmt"
	"sync"

	"repro/internal/elfimg"
)

// SizeModel controls the per-function and per-module size
// distributions.
type SizeModel struct {
	// InstrMean/InstrStdDev: retired instructions per function body.
	// At 5 bytes/instruction plus prologue this sets .text size.
	InstrMean   float64
	InstrStdDev float64
	// BytesPerInstr converts instructions to .text bytes.
	BytesPerInstr int
	// NameLenMean/StdDev: symbol-name length. The original generator
	// deliberately emits very long names, which is why Table III's
	// Pynamic string table (348 MB) dwarfs the real app's (92 MB).
	NameLenMean   float64
	NameLenStdDev float64
	// LocalSymProb: probability a function carries an extra local
	// (non-resolvable) symbol, padding .symtab like compiler-generated
	// locals do.
	LocalSymProb float64
	// DebugPerFuncMean/StdDev: .debug_* bytes per function.
	DebugPerFuncMean   float64
	DebugPerFuncStdDev float64
	// DataPerModule: .data bytes per generated DSO.
	DataPerModule uint64
}

// DefaultSizeModel is calibrated to Table III's Pynamic column:
// 280+215 DSOs averaging 1850 functions come out near 665 MB text,
// 13 MB data, 1100 MB debug, 36 MB symtab, 348 MB strtab.
func DefaultSizeModel() SizeModel {
	return SizeModel{
		InstrMean: 123, InstrStdDev: 28,
		BytesPerInstr: 5,
		NameLenMean:   228, NameLenStdDev: 50,
		LocalSymProb:     0.64,
		DebugPerFuncMean: 1200, DebugPerFuncStdDev: 250,
		DataPerModule: 24 << 10,
	}
}

// RealAppSizeModel approximates Table III's real-application column
// (287 MB text, 9 MB data, 1100 MB debug, 17 MB symtab, 92 MB strtab
// over ~500 DSOs): ordinary name lengths and heavier debug info.
func RealAppSizeModel() SizeModel {
	return SizeModel{
		InstrMean: 138, InstrStdDev: 30,
		BytesPerInstr: 5,
		NameLenMean:   138, NameLenStdDev: 40,
		LocalSymProb:     0.75,
		DebugPerFuncMean: 2800, DebugPerFuncStdDev: 500,
		DataPerModule: 18 << 10,
	}
}

// Config is the generator configuration (the original tool's command
// line, §III).
type Config struct {
	NumModules        int
	AvgFuncsPerModule int
	NumUtils          int
	AvgFuncsPerUtil   int
	Seed              uint64

	// MaxCallDepth is the chain depth; the entry function launches a
	// chain at every MaxCallDepth-th function (default 10).
	MaxCallDepth int

	// CrossModuleCalls enables the extra per-module function callable
	// by other modules.
	CrossModuleCalls bool

	// UtilCallProb is the probability that a module function calls a
	// randomly chosen utility-library function.
	UtilCallProb float64
	// UtilUtilProb is the probability that a utility function calls a
	// function from an earlier utility library (keeps the call graph
	// acyclic).
	UtilUtilProb float64
	// APICallProb is the probability that a module function calls a
	// Python C-API symbol exported by the pyMPI executable.
	APICallProb float64

	// DebugComplexity scales how expensive the workload's debug
	// information is to *parse* (not its size): the real multiphysics
	// app's C++-heavy DWARF costs debuggers roughly twice Pynamic's
	// generated-C debug info per byte, which is why Table IV's warm
	// phase-1 is longer for the real app despite its smaller size.
	// 1.0 = Pynamic-generated C.
	DebugComplexity float64

	Sizes SizeModel
}

// LLNLModel returns the configuration the paper used to model its
// multiphysics application: "280 Python modules and 215 utility
// libraries, each averaging 1850 functions" (§IV.B), 57% of the DSOs
// being Python modules.
func LLNLModel() Config {
	return Config{
		NumModules:        280,
		AvgFuncsPerModule: 1850,
		NumUtils:          215,
		AvgFuncsPerUtil:   1850,
		Seed:              42,
		MaxCallDepth:      10,
		CrossModuleCalls:  true,
		UtilCallProb:      0.5,
		UtilUtilProb:      0.3,
		APICallProb:       0.15,
		DebugComplexity:   1.0,
		Sizes:             DefaultSizeModel(),
	}
}

// RealAppModel returns the synthetic stand-in for the export-controlled
// LLNL multiphysics application itself (Table III real-app column,
// Table IV left column): ~500 DSOs, 57% Python modules, ordinary
// symbol names, heavy debug info.
func RealAppModel() Config {
	return Config{
		NumModules:        285,
		AvgFuncsPerModule: 790,
		NumUtils:          215,
		AvgFuncsPerUtil:   790,
		Seed:              7,
		MaxCallDepth:      10,
		CrossModuleCalls:  true,
		UtilCallProb:      0.5,
		UtilUtilProb:      0.3,
		APICallProb:       0.15,
		DebugComplexity:   2.1,
		Sizes:             RealAppSizeModel(),
	}
}

// Scaled returns a copy of c with the DSO counts divided by div
// (minimum 2 modules / 1 utility), for line-accurate runs at reduced
// scale. Per-DSO properties are unchanged, so per-object behaviour is
// preserved while aggregate footprint shrinks.
func (c Config) Scaled(div int) Config {
	if div <= 1 {
		return c
	}
	s := c
	s.NumModules = max(2, c.NumModules/div)
	s.NumUtils = max(1, c.NumUtils/div)
	return s
}

// ScaledFuncs additionally divides the per-DSO function counts.
func (c Config) ScaledFuncs(div int) Config {
	if div <= 1 {
		return c
	}
	s := c
	s.AvgFuncsPerModule = max(20, c.AvgFuncsPerModule/div)
	s.AvgFuncsPerUtil = max(20, c.AvgFuncsPerUtil/div)
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NumModules < 1:
		return fmt.Errorf("pygen: need at least one module, got %d", c.NumModules)
	case c.AvgFuncsPerModule < 1:
		return fmt.Errorf("pygen: need at least one function per module")
	case c.NumUtils < 0 || (c.NumUtils > 0 && c.AvgFuncsPerUtil < 1):
		return fmt.Errorf("pygen: bad utility library configuration")
	case c.MaxCallDepth < 1:
		return fmt.Errorf("pygen: max call depth must be >= 1")
	case c.UtilCallProb < 0 || c.UtilCallProb > 1,
		c.UtilUtilProb < 0 || c.UtilUtilProb > 1,
		c.APICallProb < 0 || c.APICallProb > 1:
		return fmt.Errorf("pygen: probabilities must be in [0,1]")
	case c.Sizes.BytesPerInstr <= 0 || c.Sizes.InstrMean <= 0:
		return fmt.Errorf("pygen: bad size model")
	}
	return nil
}

// Workload is a generated benchmark: the pyMPI executable image, the
// Python modules, and the utility libraries.
type Workload struct {
	Config  Config
	Exe     *elfimg.Image
	Modules []*elfimg.Image
	Utils   []*elfimg.Image

	moduleName map[string]string // python name -> soname
	names      []string          // python names in import order

	// derived memoizes state computed purely from the workload (see
	// Derived), so it lives and dies with the workload.
	derived sync.Map // key -> *derivedSlot
}

// derivedSlot is one memoized derivation of a workload.
type derivedSlot struct {
	once sync.Once
	v    any
	err  error
}

// Derived returns build's result for w, running build at most once per
// key over the workload's lifetime; concurrent first callers wait for
// that one run. A workload is immutable, so state computed purely from
// it — the job engine's shared first-definer index, say — can be kept
// on it and is freed with it: a workload evicted from a cache takes
// its derived state along, with no side registry to leak through. key
// names the derivation and must be comparable. A failed build is
// memoized like a successful one, which is right only because build
// depends on w alone.
func Derived[T any](w *Workload, key any, build func() (T, error)) (T, error) {
	v, ok := w.derived.Load(key)
	if !ok {
		v, _ = w.derived.LoadOrStore(key, new(derivedSlot))
	}
	slot := v.(*derivedSlot)
	slot.once.Do(func() { slot.v, slot.err = build() })
	if slot.err != nil {
		var zero T
		return zero, slot.err
	}
	return slot.v.(T), nil
}

// Fork returns a workload with w's content and none of its derived
// state, so the first job over the fork builds what w had memoized. It
// shares w's immutable images and costs one small allocation, which
// lets the job-scaling benchmark time jobs that each build their own
// index without regenerating the workload.
func Fork(w *Workload) *Workload {
	return &Workload{Config: w.Config, Exe: w.Exe, Modules: w.Modules, Utils: w.Utils,
		moduleName: w.moduleName, names: w.names}
}

// AllImages returns every generated DSO (modules then utilities), not
// including the executable.
func (w *Workload) AllImages() []*elfimg.Image {
	out := make([]*elfimg.Image, 0, len(w.Modules)+len(w.Utils))
	out = append(out, w.Modules...)
	out = append(out, w.Utils...)
	return out
}

// ModuleNames returns the Python import names in order.
func (w *Workload) ModuleNames() []string { return append([]string(nil), w.names...) }

// Sonames returns the sonames of all generated DSOs in load order
// (modules then utilities) — the pre-link list for the Link builds.
func (w *Workload) Sonames() []string {
	out := make([]string, 0, len(w.Modules)+len(w.Utils))
	for _, m := range w.Modules {
		out = append(out, m.Name)
	}
	for _, u := range w.Utils {
		out = append(out, u.Name)
	}
	return out
}

// Find maps a Python module name to its extension soname (the pyvm
// Finder contract).
func (w *Workload) Find(name string) (string, bool) {
	s, ok := w.moduleName[name]
	return s, ok
}

// TotalFuncs counts generated functions across modules and utilities.
func (w *Workload) TotalFuncs() int {
	n := 0
	for _, im := range w.AllImages() {
		n += len(im.Funcs)
	}
	return n
}

// Sizes returns the Table III aggregate over the generated DSOs
// (excluding the executable, matching how the paper counts the
// application's shared libraries).
func (w *Workload) Sizes() elfimg.SectionSizes {
	return elfimg.TotalSizes(w.AllImages())
}
