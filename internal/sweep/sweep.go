// Package sweep is the grid-sweep orchestration engine behind the
// experiment drivers and the sweepd service. A declarative Grid names
// the axes of a parameter sweep — workloads × policies × register file
// sizes × ablation flags × machine-model axes (window, widths, LSQ,
// predictor and cache geometry) at one scale; the engine expands it
// into deduplicated simulation points, shards them across a
// Core-recycling worker pool, and fills a content-addressed result
// cache so repeated and overlapping sweeps are incremental and
// resumable (see DESIGN.md §4).
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"earlyrelease/internal/cache"
	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/release"
	"earlyrelease/internal/workloads"
)

// Point is one fully specified simulation: the engine's unit of work
// and the logical key results are looked up by. All fields are scalars
// so a Point is comparable. The machine-model fields override one
// Table 2 parameter each; zero means "paper default", so the zero
// value of every axis names the baseline machine.
type Point struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"` // "conv", "basic" or "extended"
	IntRegs  int    `json:"int_regs"`
	FPRegs   int    `json:"fp_regs"`
	Scale    int    `json:"scale"`
	Check    bool   `json:"check,omitempty"`
	NoReuse  bool   `json:"no_reuse,omitempty"`
	Eager    bool   `json:"eager,omitempty"`

	// Machine-model overrides (0 = Table 2 baseline).
	ROSSize     int `json:"ros_size,omitempty"`     // reorder structure entries (128)
	LSQSize     int `json:"lsq_size,omitempty"`     // load/store queue entries (64)
	FetchWidth  int `json:"fetch_width,omitempty"`  // fetch width (8)
	IssueWidth  int `json:"issue_width,omitempty"`  // issue width (8)
	CommitWidth int `json:"commit_width,omitempty"` // commit width (8)
	FrontEnd    int `json:"front_end,omitempty"`    // extra front-end depth (2)
	BPredBits   int `json:"bpred_bits,omitempty"`   // gshare history bits: 2^bits counters (18)
	L1DKB       int `json:"l1d_kb,omitempty"`       // L1 data cache size in KB (32)
	L2KB        int `json:"l2_kb,omitempty"`        // unified L2 size in KB (1024)
	MemLat      int `json:"mem_lat,omitempty"`      // main memory latency in cycles (50)
}

// String names the point in error messages and progress lines.
func (p Point) String() string {
	s := fmt.Sprintf("%s/%s/%d+%d@%d", p.Workload, p.Policy, p.IntRegs, p.FPRegs, p.Scale)
	for _, ax := range machineAxes {
		if v := ax.Get(p); v != 0 {
			s += fmt.Sprintf("/%s=%d", ax.Name, v)
		}
	}
	if p.NoReuse {
		s += "/noreuse"
	}
	if p.Eager {
		s += "/eager"
	}
	if p.Check {
		s += "/check"
	}
	return s
}

// Config builds the full machine configuration the point simulates.
func (p Point) Config() (pipeline.Config, error) {
	kind, err := release.ParseKind(p.Policy)
	if err != nil {
		return pipeline.Config{}, err
	}
	// Negative overrides would fall through every `> 0` guard below and
	// silently simulate the baseline while being labeled (and cached)
	// as a different machine; reject them as this point's error.
	for _, ax := range machineAxes {
		if v := ax.Get(p); v < 0 {
			return pipeline.Config{}, fmt.Errorf("sweep: axis %s value %d is negative", ax.Name, v)
		}
	}
	cfg := pipeline.DefaultConfig(kind, p.IntRegs, p.FPRegs)
	cfg.Check = p.Check
	cfg.TrackRegStates = true
	cfg.Policy.Reuse = !p.NoReuse
	cfg.Policy.Eager = p.Eager
	if p.ROSSize > 0 {
		cfg.ROSSize = p.ROSSize
	}
	if p.LSQSize > 0 {
		cfg.LSQSize = p.LSQSize
	}
	if p.FetchWidth > 0 {
		cfg.FetchWidth = p.FetchWidth
	}
	if p.IssueWidth > 0 {
		cfg.IssueWidth = p.IssueWidth
	}
	if p.CommitWidth > 0 {
		cfg.CommitWidth = p.CommitWidth
	}
	if p.FrontEnd > 0 {
		cfg.FrontEndDepth = p.FrontEnd
	}
	if p.BPredBits > 0 {
		// bpred.Config silently canonicalizes out-of-range history
		// lengths back to the default; reject them here so a bpred=31
		// point cannot simulate the Table 2 machine while being cached
		// and reported as a 2^31-counter one.
		if p.BPredBits > 30 {
			return pipeline.Config{}, fmt.Errorf(
				"sweep: bpred history bits %d out of range (1..30)", p.BPredBits)
		}
		cfg.BPred.HistoryBits = p.BPredBits
	}
	if p.L1DKB > 0 {
		cfg.Mem.L1D.SizeBytes = p.L1DKB << 10
	}
	if p.L2KB > 0 {
		cfg.Mem.L2.SizeBytes = p.L2KB << 10
	}
	if p.MemLat > 0 {
		cfg.Mem.MemLat = p.MemLat
	}
	// Cache construction panics on a non-power-of-two set count, and
	// worker panics would take the whole sweep down: reject bad cache
	// geometry here so it surfaces as this point's error instead.
	for _, lv := range []struct {
		name string
		c    cache.Config
	}{{"L1D", cfg.Mem.L1D}, {"L2", cfg.Mem.L2}} {
		sets := lv.c.SizeBytes / (lv.c.Ways * lv.c.LineBytes)
		if sets <= 0 || sets&(sets-1) != 0 {
			return pipeline.Config{}, fmt.Errorf(
				"sweep: %s geometry %d B / %d ways / %d B lines has non-power-of-two sets",
				lv.name, lv.c.SizeBytes, lv.c.Ways, lv.c.LineBytes)
		}
	}
	if err := cfg.Validate(); err != nil {
		return pipeline.Config{}, err
	}
	return cfg, nil
}

// Key returns the content-addressed cache key for the point's
// simulation: any machine parameter that can change a Result is part
// of the hashed configuration, so two points collide only when their
// simulations are identical.
func (p Point) Key() (string, error) {
	cfg, err := p.Config()
	if err != nil {
		return "", err
	}
	return ConfigKey(p.Workload, p.Scale, cfg)
}

// ConfigKey hashes (workload, scale, full pipeline.Config) into the
// cache's content address. The *entire* Config is hashed, so a config
// change (even a default) invalidates exactly the affected entries;
// the key-sensitivity test perturbs every Config field reflectively to
// keep this property honest as the config grows axes.
func ConfigKey(workload string, scale int, cfg pipeline.Config) (string, error) {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return "", err
	}
	return configJSONKey(workload, scale, blob)
}

// configJSONKey hashes the JSON encoding of
//
//	struct{ Workload string; Scale int; Config pipeline.Config }
//
// given the config's own encoding, cfgJSON. The bytes hashed are
// exactly those json.Marshal gives for that struct (TestKeysMatchKey
// pins this), so keys never change with how they are computed.
func configJSONKey(workload string, scale int, cfgJSON []byte) (string, error) {
	var stack [1024]byte // a config encodes to about 700 B
	buf := append(stack[:0], `{"Workload":`...)
	if plainJSON(workload) {
		buf = append(append(append(buf, '"'), workload...), '"')
	} else {
		w, err := json.Marshal(workload)
		if err != nil {
			return "", err
		}
		buf = append(buf, w...)
	}
	buf = append(buf, `,"Scale":`...)
	buf = strconv.AppendInt(buf, int64(scale), 10)
	buf = append(buf, `,"Config":`...)
	buf = append(buf, cfgJSON...)
	buf = append(buf, '}')
	sum := sha256.Sum256(buf)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:]), nil
}

// plainJSON reports whether json.Marshal encodes s as s between two
// quotes: every byte is printable ASCII that it neither escapes nor
// HTML-escapes.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// Keys returns what Key returns for each point, key and error, but
// encodes each distinct machine configuration once. A point's Config
// depends on neither its workload nor its scale, and a grid repeats
// every configuration once per workload, so the acceptance grid's 192
// points share 64 encodings. It is the one keying path: the engine
// and the coordinator key every batch of points through it, and sweepd
// rebuilds a finished sweep's keys with it on each read.
func Keys(points []Point) ([]string, []error) {
	type encoded struct {
		blob []byte
		err  error
	}
	byMachine := make(map[Point]encoded)
	keys := make([]string, len(points))
	errs := make([]error, len(points))
	for i, pt := range points {
		machine := pt
		machine.Workload, machine.Scale = "", 0
		enc, ok := byMachine[machine]
		if !ok {
			cfg, err := pt.Config()
			if err == nil {
				enc.blob, err = json.Marshal(cfg)
			}
			enc.err = err
			byMachine[machine] = enc
		}
		if enc.err != nil {
			errs[i] = enc.err
			continue
		}
		keys[i], errs[i] = configJSONKey(pt.Workload, pt.Scale, enc.blob)
	}
	return keys, errs
}

// Grid declares a sweep as axes to be crossed. Empty axes take the
// paper's defaults, so the zero Grid is the Figure 10 comparison over
// the whole workload corpus on the Table 2 machine.
type Grid struct {
	// Workloads to simulate; empty means the whole built-in corpus.
	// Names are validated per job, not up front: an unknown workload
	// surfaces as that point's error without failing the sweep.
	Workloads []string `json:"workloads,omitempty"`
	// Policies to compare; empty means conv, basic and extended.
	Policies []string `json:"policies,omitempty"`
	// IntRegs is the integer register file size axis; empty means {48}.
	IntRegs []int `json:"int_regs,omitempty"`
	// FPRegs is the FP size axis. Empty mirrors IntRegs pairwise (the
	// paper's p+p sweeps); otherwise the two axes are crossed.
	FPRegs []int `json:"fp_regs,omitempty"`
	// Scale is the dynamic instruction budget per trace (0 = 300000).
	Scale int `json:"scale,omitempty"`
	// Check enables the release-safety invariant checker on every point.
	Check bool `json:"check,omitempty"`
	// NoReuse and Eager extend the grid with ablation variants: each
	// listed value becomes one more axis entry. Empty means {false}.
	NoReuse []bool `json:"no_reuse,omitempty"`
	Eager   []bool `json:"eager,omitempty"`

	// Machine-model axes. Each empty axis pins its parameter to the
	// Table 2 baseline; a listed 0 also means baseline, so axes can
	// sweep "default plus variants". Non-empty axes cross like every
	// other axis and land in the same content-addressed cache.
	ROSSizes     []int `json:"ros_sizes,omitempty"`
	LSQSizes     []int `json:"lsq_sizes,omitempty"`
	FetchWidths  []int `json:"fetch_widths,omitempty"`
	IssueWidths  []int `json:"issue_widths,omitempty"`
	CommitWidths []int `json:"commit_widths,omitempty"`
	FrontEnds    []int `json:"front_ends,omitempty"`
	BPredBits    []int `json:"bpred_bits,omitempty"`
	L1DKBs       []int `json:"l1d_kbs,omitempty"`
	L2KBs        []int `json:"l2_kbs,omitempty"`
	MemLats      []int `json:"mem_lats,omitempty"`
}

// DefaultScale matches the paper's 300k-instruction traces.
const DefaultScale = 300_000

// IntAxis describes one sweepable machine-model dimension: its wire
// name (shared by the cmd/sweep -axis flag, the sweepd grid schema and
// the sensitivity driver), the Table 2 baseline, and accessors tying
// it to Point and Grid fields.
type IntAxis struct {
	Name     string // stable wire name, e.g. "ros"
	Doc      string
	Field    string // the Grid JSON field the axis maps to, e.g. "ros_sizes"
	Baseline int    // Table 2 value the zero override resolves to
	// Sensitivity is the default value range the sensitivity driver
	// sweeps around the baseline (always contains 0 = baseline).
	Sensitivity []int
	Set         func(*Point, int)
	Get         func(Point) int
	GridSet     func(*Grid, []int)
	GridGet     func(Grid) []int
}

// MachineAxes lists every machine-model axis in presentation order.
// The list is a copy callers may reorder or trim; the axes' Sensitivity
// slices are shared with the package table and are read-only.
func MachineAxes() []IntAxis { return slices.Clone(machineAxes) }

// machineAxes is the axis table itself. The package's own loops —
// Point.Config and Key, Grid.Expand — range over it directly, since
// they run per point and a fresh ten-axis slice per call added up.
var machineAxes = []IntAxis{
	{
		Name: "ros", Field: "ros_sizes", Doc: "reorder structure entries", Baseline: 128,
		Sensitivity: []int{32, 64, 0, 256},
		Set:         func(p *Point, v int) { p.ROSSize = v },
		Get:         func(p Point) int { return p.ROSSize },
		GridSet:     func(g *Grid, v []int) { g.ROSSizes = v },
		GridGet:     func(g Grid) []int { return g.ROSSizes },
	},
	{
		Name: "lsq", Field: "lsq_sizes", Doc: "load/store queue entries", Baseline: 64,
		Sensitivity: []int{16, 32, 0, 128},
		Set:         func(p *Point, v int) { p.LSQSize = v },
		Get:         func(p Point) int { return p.LSQSize },
		GridSet:     func(g *Grid, v []int) { g.LSQSizes = v },
		GridGet:     func(g Grid) []int { return g.LSQSizes },
	},
	{
		Name: "fetch", Field: "fetch_widths", Doc: "fetch width", Baseline: 8,
		Sensitivity: []int{2, 4, 0, 16},
		Set:         func(p *Point, v int) { p.FetchWidth = v },
		Get:         func(p Point) int { return p.FetchWidth },
		GridSet:     func(g *Grid, v []int) { g.FetchWidths = v },
		GridGet:     func(g Grid) []int { return g.FetchWidths },
	},
	{
		Name: "issue", Field: "issue_widths", Doc: "issue width", Baseline: 8,
		Sensitivity: []int{2, 4, 0, 16},
		Set:         func(p *Point, v int) { p.IssueWidth = v },
		Get:         func(p Point) int { return p.IssueWidth },
		GridSet:     func(g *Grid, v []int) { g.IssueWidths = v },
		GridGet:     func(g Grid) []int { return g.IssueWidths },
	},
	{
		Name: "commit", Field: "commit_widths", Doc: "commit width", Baseline: 8,
		Sensitivity: []int{2, 4, 0, 16},
		Set:         func(p *Point, v int) { p.CommitWidth = v },
		Get:         func(p Point) int { return p.CommitWidth },
		GridSet:     func(g *Grid, v []int) { g.CommitWidths = v },
		GridGet:     func(g Grid) []int { return g.CommitWidths },
	},
	{
		Name: "frontend", Field: "front_ends", Doc: "extra front-end stages", Baseline: 2,
		Sensitivity: []int{1, 0, 4, 8},
		Set:         func(p *Point, v int) { p.FrontEnd = v },
		Get:         func(p Point) int { return p.FrontEnd },
		GridSet:     func(g *Grid, v []int) { g.FrontEnds = v },
		GridGet:     func(g Grid) []int { return g.FrontEnds },
	},
	{
		Name: "bpred", Field: "bpred_bits", Doc: "gshare history bits (table = 2^bits)", Baseline: 18,
		Sensitivity: []int{10, 14, 0},
		Set:         func(p *Point, v int) { p.BPredBits = v },
		Get:         func(p Point) int { return p.BPredBits },
		GridSet:     func(g *Grid, v []int) { g.BPredBits = v },
		GridGet:     func(g Grid) []int { return g.BPredBits },
	},
	{
		Name: "l1d", Field: "l1d_kbs", Doc: "L1 data cache KB", Baseline: 32,
		Sensitivity: []int{8, 16, 0, 64},
		Set:         func(p *Point, v int) { p.L1DKB = v },
		Get:         func(p Point) int { return p.L1DKB },
		GridSet:     func(g *Grid, v []int) { g.L1DKBs = v },
		GridGet:     func(g Grid) []int { return g.L1DKBs },
	},
	{
		Name: "l2", Field: "l2_kbs", Doc: "unified L2 KB", Baseline: 1024,
		Sensitivity: []int{256, 512, 0, 2048},
		Set:         func(p *Point, v int) { p.L2KB = v },
		Get:         func(p Point) int { return p.L2KB },
		GridSet:     func(g *Grid, v []int) { g.L2KBs = v },
		GridGet:     func(g Grid) []int { return g.L2KBs },
	},
	{
		Name: "memlat", Field: "mem_lats", Doc: "main memory latency (cycles)", Baseline: 50,
		Sensitivity: []int{25, 0, 100, 200},
		Set:         func(p *Point, v int) { p.MemLat = v },
		Get:         func(p Point) int { return p.MemLat },
		GridSet:     func(g *Grid, v []int) { g.MemLats = v },
		GridGet:     func(g Grid) []int { return g.MemLats },
	},
}

// Canon maps an axis value naming the Table 2 baseline to the zero
// override, so a literal-baseline entry (e.g. ros=128) and a 0 expand
// to the same Point — one cache entry, one simulation.
func (ax IntAxis) Canon(v int) int {
	if v == ax.Baseline {
		return 0
	}
	return v
}

// AxisByName resolves a machine-model axis by its wire name.
func AxisByName(name string) (IntAxis, error) {
	for _, ax := range machineAxes {
		if ax.Name == name {
			return ax, nil
		}
	}
	return IntAxis{}, fmt.Errorf("sweep: unknown machine axis %q (have %v)", name, AxisNames())
}

// AxisNames lists the machine-axis wire names in presentation order.
func AxisNames() []string {
	var names []string
	for _, ax := range machineAxes {
		names = append(names, ax.Name)
	}
	return names
}

// SetAxis assigns one named machine-model axis of the grid.
func (g *Grid) SetAxis(name string, values []int) error {
	ax, err := AxisByName(name)
	if err != nil {
		return err
	}
	ax.GridSet(g, values)
	return nil
}

func orStrings(xs []string, def []string) []string {
	if len(xs) == 0 {
		return def
	}
	return xs
}

// uniq returns xs without its repeated values, first occurrences in
// order, in a new slice.
func uniq[T comparable](xs []T) []T {
	seen := map[T]bool{}
	out := make([]T, 0, len(xs))
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// Expand crosses the grid's axes into the deduplicated, ordered list of
// points to simulate. Later duplicates (overlapping axes, repeated
// entries) are dropped, keeping first-occurrence order so progress and
// result listings are deterministic. The order is the cross product's,
// with workloads varying slowest and the last listed machine axis
// fastest; an empty machine axis pins its parameter to the baseline.
// Each axis is deduplicated on its canonical values first (a value
// naming the baseline is the zero override), so every tuple of axis
// values is a distinct point, in the order of its first occurrence in
// the full product, and the output is allocated once at its length.
func (g Grid) Expand() []Point {
	ws := uniq(orStrings(g.Workloads, workloads.Names()))
	pols := uniq(orStrings(g.Policies, []string{
		release.Conventional.String(), release.Basic.String(), release.Extended.String()}))
	ints := g.IntRegs
	if len(ints) == 0 {
		ints = []int{48}
	}
	scale := g.Scale
	if scale <= 0 {
		scale = DefaultScale
	}
	noReuse := uniq(g.NoReuse)
	if len(noReuse) == 0 {
		noReuse = []bool{false}
	}
	eager := uniq(g.Eager)
	if len(eager) == 0 {
		eager = []bool{false}
	}

	var sizes [][2]int
	if len(g.FPRegs) == 0 {
		for _, p := range ints {
			sizes = append(sizes, [2]int{p, p})
		}
	} else {
		for _, ip := range ints {
			for _, fp := range g.FPRegs {
				sizes = append(sizes, [2]int{ip, fp})
			}
		}
	}
	sizes = uniq(sizes)

	type machineAxis struct {
		ax   IntAxis
		vals []int
	}
	var mach []machineAxis
	n := len(ws) * len(pols) * len(sizes) * len(noReuse) * len(eager)
	for _, ax := range machineAxes {
		vals := ax.GridGet(g)
		if len(vals) == 0 {
			continue
		}
		canon := make([]int, len(vals))
		for i, v := range vals {
			canon[i] = ax.Canon(v)
		}
		mach = append(mach, machineAxis{ax, uniq(canon)})
		n *= len(mach[len(mach)-1].vals)
	}

	// Point r is the mixed-radix number r read off the axes, the last
	// machine axis its lowest digit.
	out := make([]Point, n)
	for r := range out {
		pt := &out[r]
		q := r
		for j := len(mach) - 1; j >= 0; j-- {
			m := mach[j]
			m.ax.Set(pt, m.vals[q%len(m.vals)])
			q /= len(m.vals)
		}
		pt.Eager = eager[q%len(eager)]
		q /= len(eager)
		pt.NoReuse = noReuse[q%len(noReuse)]
		q /= len(noReuse)
		sz := sizes[q%len(sizes)]
		pt.IntRegs, pt.FPRegs = sz[0], sz[1]
		q /= len(sizes)
		pt.Policy = pols[q%len(pols)]
		pt.Workload = ws[q/len(pols)]
		pt.Scale, pt.Check = scale, g.Check
	}
	return out
}
