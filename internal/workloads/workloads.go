// Package workloads provides the benchmark corpus driving the
// reproduction and its extensions. The paper suite is ten kernels
// written in the simulator's own ISA that stand in for the SPEC95
// subset of the paper (Table 3).
//
// SPEC95 binaries (and the Compaq Alpha compilers the paper used) are
// not available, so each kernel is designed to mimic the dominant
// dynamic character of its namesake:
//
//	compress  LZW-style hash loop: byte stream, data-dependent hit/miss
//	gcc       IR walk with a dispatch tree: many short basic blocks
//	go        recursive game-tree search: call-heavy, irregular branches
//	li        cons-cell interpreter: pointer chasing, tag dispatch
//	perl      string hashing with open-addressing probe loops
//	mgrid     3D 7-point stencil relaxation (high FP pressure)
//	tomcatv   2D mesh generation with long FP expressions (very high
//	          register pressure; the paper's most pressure-sensitive code)
//	applu     blocked lower-triangular solves with divides
//	swim      shallow-water stencil updates over three grids
//	hydro2d   gas-dynamics cell updates with divide/sqrt chains
//
// The integer kernels are branch-intensive with low register pressure;
// the FP kernels carry many simultaneously-live values and long-latency
// operations, giving high register pressure — the two workload
// properties the paper's conclusions rest on. The tests in this package
// verify those properties on the generated traces.
//
// Corpus v2 (kernels_v2.go) extends the space into regions the paper
// suite never reaches — MLP-starved pointer chasing, cache-hostile
// probing, predictor-hostile sorting, bandwidth-bound streaming, deep
// call recursion, and phase-alternating int/FP pressure. The paper's
// figure drivers stay on the Table 3 stand-ins (Paper); sweeps default
// to the whole corpus (All).
package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"earlyrelease/internal/emu"
	"earlyrelease/internal/program"
	"earlyrelease/internal/trace"
)

// Class labels workload type, extending the paper's int/FP split with
// the phase-alternating mixed kernels of corpus v2.
type Class int

// Workload classes.
const (
	Int Class = iota
	FP
	Mixed
)

func (c Class) String() string {
	switch c {
	case FP:
		return "fp"
	case Mixed:
		return "mixed"
	}
	return "int"
}

// Workload is one benchmark: a program generator parameterized by an
// approximate dynamic-instruction budget.
type Workload struct {
	Name        string
	Class       Class
	Paper       bool // member of the paper's Table 3 stand-in suite
	Description string
	// Build generates the program sized so that its dynamic trace is
	// roughly `scale` instructions (within a factor of ~2).
	Build func(scale int) *program.Program
}

var registry = []Workload{
	{"compress", Int, true, "LZW-style hash compressor loop", buildCompress},
	{"gcc", Int, true, "IR traversal with opcode dispatch tree", buildGCC},
	{"go", Int, true, "recursive game-tree evaluation", buildGo},
	{"li", Int, true, "cons-cell list interpreter", buildLi},
	{"perl", Int, true, "string hashing with probe loops", buildPerl},
	{"mgrid", FP, true, "3D 7-point stencil relaxation", buildMgrid},
	{"tomcatv", FP, true, "2D mesh generation, long FP expressions", buildTomcatv},
	{"applu", FP, true, "blocked triangular solves with divides", buildApplu},
	{"swim", FP, true, "shallow-water grid updates", buildSwim},
	{"hydro2d", FP, true, "gas dynamics with div/sqrt chains", buildHydro2d},
	// Corpus v2: regions the paper suite misses (see kernels_v2.go).
	{"listwalk", Int, false, "pointer-chasing linked-list walk, MLP-starved", buildListwalk},
	{"hashjoin", Int, false, "hash-join probe over an L1-hostile table", buildHashjoin},
	{"qsort", Int, false, "branchy recursive quicksort, predictor-hostile", buildQsort},
	{"rdescent", Int, false, "call-heavy recursive-descent expression parser", buildRdescent},
	{"triad", FP, false, "streaming triad over L2-sized arrays, bandwidth-bound", buildTriad},
	{"mixmode", Mixed, false, "phase-alternating int/FP pressure kernel", buildMixmode},
}

// All returns the full corpus: the paper suite followed by corpus v2.
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	return out
}

// Paper returns the ten Table 3 stand-ins in the paper's order (int
// then FP). The figure drivers use this suite so the reproduction stays
// faithful as the corpus grows.
func Paper() []Workload {
	var out []Workload
	for _, w := range registry {
		if w.Paper {
			out = append(out, w)
		}
	}
	return out
}

// ByClass returns every workload of one class, across both suites.
func ByClass(c Class) []Workload {
	var out []Workload
	for _, w := range registry {
		if w.Class == c {
			out = append(out, w)
		}
	}
	return out
}

// PaperByClass returns the five paper-suite workloads of one class.
func PaperByClass(c Class) []Workload {
	var out []Workload
	for _, w := range registry {
		if w.Paper && w.Class == c {
			out = append(out, w)
		}
	}
	return out
}

// ByName finds a workload.
func ByName(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names returns all workload names in registry order (paper suite
// first, then corpus v2).
func Names() []string {
	var names []string
	for _, w := range registry {
		names = append(names, w.Name)
	}
	return names
}

// traceCache memoizes emulated traces per (name, scale): the experiment
// sweeps re-run the same trace under many configurations. Each entry
// builds exactly once — concurrent callers of the same (name, scale)
// wait on the first builder instead of emulating the trace again.
// Scales that build the same program share one trace (see Trace).
type traceEntry struct {
	once sync.Once
	prog [sha256.Size]byte // fingerprint of the built program
	tr   *trace.Trace
	err  error
}

var (
	cacheMu    sync.Mutex
	traceCache = map[string]*traceEntry{}
)

// Trace builds the workload at the given scale, runs it functionally and
// returns the dynamic trace. Results are memoized. The memoized trace's
// program holds the text segment only: the data segment is the
// emulator's initial memory, no trace consumer reads it, and at small
// scales it outweighs the trace (hashjoin at scale 10 000: 544 KB of
// input tables against about 60 KB of trace).
//
// A kernel may build the same program at several scales (tomcatv does
// below scale 338 272). A new scale then reuses the trace another scale
// emulated from an identical program, as long as that trace fits in the
// new scale's instruction limit: emulation is deterministic and the
// trace ran to its halt, so emulating again would record it exactly.
func (w Workload) Trace(scale int) (*trace.Trace, error) {
	key := fmt.Sprintf("%s/%d", w.Name, scale)
	cacheMu.Lock()
	e, ok := traceCache[key]
	if !ok {
		e = &traceEntry{}
		traceCache[key] = e
	}
	cacheMu.Unlock()

	e.once.Do(func() {
		p := w.Build(scale)
		if err := p.Validate(); err != nil {
			e.err = err
			return
		}
		limit := uint64(scale)*8 + 1_000_000
		fp := fingerprint(p)
		cacheMu.Lock()
		e.prog = fp
		for _, o := range traceCache {
			if o.tr != nil && o.prog == e.prog && uint64(o.tr.Len()) <= limit {
				e.tr = o.tr
				break
			}
		}
		cacheMu.Unlock()
		if e.tr != nil {
			return
		}
		m := emu.New(p)
		tr, err := m.Run(limit)
		if err != nil {
			e.err = fmt.Errorf("workloads: emulating %s: %w", w.Name, err)
			return
		}
		text := *p
		text.Data = nil
		tr.Prog = &text
		// Published under cacheMu so that TraceCacheStats can read it.
		cacheMu.Lock()
		e.tr = tr
		cacheMu.Unlock()
	})
	return e.tr, e.err
}

// MustTrace is Trace that panics on error (for benchmarks).
func (w Workload) MustTrace(scale int) *trace.Trace {
	tr, err := w.Trace(scale)
	if err != nil {
		panic(err)
	}
	return tr
}

// ClearTraceCache drops memoized traces, so that the next Trace call
// emulates afresh. Tests use it to bound memory, and the service
// benchmark's replay to time trace builds from an empty cache.
func ClearTraceCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	traceCache = map[string]*traceEntry{}
}

// TraceCacheStats reports the memoized traces: how many distinct traces
// are built, and the heap bytes their columns hold (the sum of
// Trace.Bytes). A trace shared by several scales counts once.
func TraceCacheStats() (entries int, bytes int64) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	seen := make(map[*trace.Trace]bool, len(traceCache))
	for _, e := range traceCache {
		if e.tr != nil && !seen[e.tr] {
			seen[e.tr] = true
			entries++
			bytes += e.tr.Bytes()
		}
	}
	return entries, bytes
}

// fingerprint hashes what emulating p reads, and the name its trace
// carries: the name, the text and the data segment.
func fingerprint(p *program.Program) [sha256.Size]byte {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, uint64(len(p.Name)))
	h.Write([]byte(p.Name))
	binary.Write(h, binary.LittleEndian, uint64(len(p.Insts)))
	if err := binary.Write(h, binary.LittleEndian, p.Insts); err != nil {
		panic(err) // isa.Inst is fixed-size; this cannot fail
	}
	h.Write(p.Data)
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}

// lcg is the deterministic generator used for synthetic input data.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2862933555777941757 + 3037000493} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 17
}

func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }

func (l *lcg) float() float64 { return float64(l.next()%1_000_000)/1_000_000 + 0.1 }
