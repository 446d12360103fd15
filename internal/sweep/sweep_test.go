package sweep

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"earlyrelease/internal/workloads"
)

const testScale = 20_000

func testGrid() Grid {
	return Grid{
		Workloads: []string{"tomcatv", "go"},
		Policies:  []string{"conv", "extended"},
		IntRegs:   []int{40, 48},
		Scale:     testScale,
	}
}

func TestExpandDefaultsAndDedup(t *testing.T) {
	t.Parallel()
	// The zero grid is the full corpus × three policies × 48+48.
	pts := Grid{}.Expand()
	if want := len(workloads.All()) * 3; len(pts) != want {
		t.Fatalf("zero grid expands to %d points, want %d", len(pts), want)
	}
	if pts[0].Scale != DefaultScale || pts[0].IntRegs != 48 || pts[0].FPRegs != 48 {
		t.Errorf("bad defaults: %+v", pts[0])
	}

	// Overlapping axes deduplicate, keeping first-occurrence order.
	g := Grid{Workloads: []string{"tomcatv", "tomcatv"}, Policies: []string{"conv"},
		IntRegs: []int{48, 40, 48}, Scale: testScale}
	pts = g.Expand()
	if len(pts) != 2 {
		t.Fatalf("deduplicated grid has %d points, want 2", len(pts))
	}
	if pts[0].IntRegs != 48 || pts[1].IntRegs != 40 {
		t.Errorf("expansion order not preserved: %v", pts)
	}
}

// expandByCrossing is the expansion Grid.Expand replaced, kept as its
// oracle: build the workload × policy × size × ablation product, cross
// it with one machine axis at a time (a copy of the point list per
// crossed axis), then drop later duplicates.
func expandByCrossing(g Grid) []Point {
	ws := orStrings(g.Workloads, workloads.Names())
	pols := orStrings(g.Policies, []string{"conv", "basic", "extended"})
	ints := g.IntRegs
	if len(ints) == 0 {
		ints = []int{48}
	}
	scale := g.Scale
	if scale <= 0 {
		scale = DefaultScale
	}
	noReuse, eager := g.NoReuse, g.Eager
	if len(noReuse) == 0 {
		noReuse = []bool{false}
	}
	if len(eager) == 0 {
		eager = []bool{false}
	}
	var sizes [][2]int
	for _, ip := range ints {
		if len(g.FPRegs) == 0 {
			sizes = append(sizes, [2]int{ip, ip})
		}
		for _, fp := range g.FPRegs {
			sizes = append(sizes, [2]int{ip, fp})
		}
	}
	var pts []Point
	for _, w := range ws {
		for _, pol := range pols {
			for _, sz := range sizes {
				for _, nr := range noReuse {
					for _, eg := range eager {
						pts = append(pts, Point{Workload: w, Policy: pol,
							IntRegs: sz[0], FPRegs: sz[1], Scale: scale, Check: g.Check,
							NoReuse: nr, Eager: eg})
					}
				}
			}
		}
	}
	for _, ax := range MachineAxes() {
		vals := ax.GridGet(g)
		if len(vals) == 0 {
			continue
		}
		crossed := make([]Point, 0, len(pts)*len(vals))
		for _, pt := range pts {
			for _, v := range vals {
				ax.Set(&pt, ax.Canon(v))
				crossed = append(crossed, pt)
			}
		}
		pts = crossed
	}
	seen := map[Point]bool{}
	var out []Point
	for _, pt := range pts {
		if !seen[pt] {
			seen[pt] = true
			out = append(out, pt)
		}
	}
	return out
}

// TestExpandMatchesCrossing checks Expand's odometer against the
// crossing oracle, point for point and in order, and that it returns
// exactly its length: on the acceptance grid, on empty axes, and on
// axes that repeat values or overlap through the baseline.
func TestExpandMatchesCrossing(t *testing.T) {
	t.Parallel()
	grids := map[string]Grid{
		"acceptance": acceptanceGrid(testScale),
		"empty":      {},
		"empty machine axes": {Workloads: []string{"go"}, IntRegs: []int{40},
			ROSSizes: []int{}, MemLats: nil},
		"duplicates": {Workloads: []string{"go", "swim", "go"},
			Policies: []string{"extended", "conv", "extended"},
			IntRegs:  []int{48, 40, 48}, NoReuse: []bool{true, false, true},
			Eager: []bool{false, false}, Check: true, Scale: testScale},
		"crossed fp": {Workloads: []string{"li"}, IntRegs: []int{40, 48, 40},
			FPRegs: []int{64, 48, 64}},
		"baseline overlap": {Workloads: []string{"go"}, Policies: []string{"conv"},
			ROSSizes: []int{64, 0, 128, 256, 64}, IssueWidths: []int{8, 4, 0},
			BPredBits: []int{18, 10}, MemLats: []int{50}, L2KBs: []int{0, 0}},
		"ablations only": {Workloads: []string{"swim"}, Policies: []string{"basic"},
			NoReuse: []bool{false, true}, Eager: []bool{true, false, true}},
	}
	for name, g := range grids {
		got, want := g.Expand(), expandByCrossing(g)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Expand gives %d points, crossing %d:\n got %v\nwant %v",
				name, len(got), len(want), got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: %d points in capacity %d", name, len(got), cap(got))
		}
	}
	if n := len(acceptanceGrid(testScale).Expand()); n != 192 {
		t.Errorf("acceptance grid expands to %d points, want 192", n)
	}
}

func TestExpandAxes(t *testing.T) {
	t.Parallel()
	// Explicit FP axis crosses; empty FP axis mirrors pairwise.
	crossed := Grid{Workloads: []string{"swim"}, Policies: []string{"basic"},
		IntRegs: []int{40, 48}, FPRegs: []int{64, 80}}.Expand()
	if len(crossed) != 4 {
		t.Errorf("crossed axes: %d points, want 4", len(crossed))
	}
	mirrored := Grid{Workloads: []string{"swim"}, Policies: []string{"basic"},
		IntRegs: []int{40, 48}}.Expand()
	if len(mirrored) != 2 || mirrored[0].FPRegs != 40 || mirrored[1].FPRegs != 48 {
		t.Errorf("mirrored axes wrong: %v", mirrored)
	}
	// Ablation axes multiply the grid.
	ablated := Grid{Workloads: []string{"swim"}, Policies: []string{"basic"},
		NoReuse: []bool{false, true}, Eager: []bool{false, true}}.Expand()
	if len(ablated) != 4 {
		t.Errorf("ablation axes: %d points, want 4", len(ablated))
	}
}

func TestExpandMachineAxes(t *testing.T) {
	t.Parallel()
	// Machine axes cross like every other axis; 0 entries pin the
	// baseline, so "default plus variants" sweeps dedup against it.
	g := Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
		ROSSizes: []int{64, 0, 256}, IssueWidths: []int{4, 0}, Scale: testScale}
	pts := g.Expand()
	if len(pts) != 6 {
		t.Fatalf("machine axes: %d points, want 6", len(pts))
	}
	if pts[0].ROSSize != 64 || pts[0].IssueWidth != 4 {
		t.Errorf("machine axis ordering wrong: %+v", pts[0])
	}
	// The baseline point (all overrides zero) is a member, identical to
	// the point an axis-free grid produces — shared cache entries.
	base := Grid{Workloads: []string{"go"}, Policies: []string{"conv"}, Scale: testScale}.Expand()[0]
	found := false
	for _, pt := range pts {
		if pt == base {
			found = true
		}
	}
	if !found {
		t.Error("baseline point missing from machine-axis expansion")
	}

	// Every named axis round-trips through SetAxis and lands on the
	// matching Point field (a literal baseline would canonicalize to 0,
	// so probe with a neighboring value).
	for _, ax := range MachineAxes() {
		v := ax.Baseline + 1
		var g Grid
		if err := g.SetAxis(ax.Name, []int{v}); err != nil {
			t.Fatalf("SetAxis(%s): %v", ax.Name, err)
		}
		pts := Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
			Scale: testScale, ROSSizes: g.ROSSizes, LSQSizes: g.LSQSizes,
			FetchWidths: g.FetchWidths, IssueWidths: g.IssueWidths,
			CommitWidths: g.CommitWidths, FrontEnds: g.FrontEnds,
			BPredBits: g.BPredBits, L1DKBs: g.L1DKBs, L2KBs: g.L2KBs,
			MemLats: g.MemLats}.Expand()
		if len(pts) != 1 || ax.Get(pts[0]) != v {
			t.Errorf("axis %s did not reach the expanded point: %+v", ax.Name, pts)
		}
	}
	if err := new(Grid).SetAxis("warp-core", []int{9}); err == nil {
		t.Error("unknown axis accepted")
	}
}

// TestAxisFieldsMatchGridJSON pins each axis's advertised Field (the
// sweepd schema) to the Grid's actual JSON tag: a grid with only that
// axis set must marshal to exactly {Field: [...]}.
func TestAxisFieldsMatchGridJSON(t *testing.T) {
	t.Parallel()
	for _, ax := range MachineAxes() {
		var g Grid
		ax.GridSet(&g, []int{1})
		blob, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		if len(m) != 1 {
			t.Fatalf("%s: one-axis grid marshals %d fields (%s) — omitempty lost?",
				ax.Name, len(m), blob)
		}
		if _, ok := m[ax.Field]; !ok {
			t.Errorf("%s: advertised field %q does not match grid JSON %s", ax.Name, ax.Field, blob)
		}
	}
}

// TestLiteralBaselineDedups: an axis entry naming the Table 2 value
// (ros=128) canonicalizes to the zero override, so "ros=128,0" is one
// point, not two simulations of the same machine.
func TestLiteralBaselineDedups(t *testing.T) {
	t.Parallel()
	pts := Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
		ROSSizes: []int{128, 0}, Scale: testScale}.Expand()
	if len(pts) != 1 {
		t.Fatalf("ros=128,0 expands to %d points, want 1: %v", len(pts), pts)
	}
	if pts[0].ROSSize != 0 {
		t.Errorf("literal baseline not canonicalized: %+v", pts[0])
	}
	// Same through SetAxis and a full sweep list.
	var g Grid
	if err := g.SetAxis("lsq", []int{16, 64, 0, 128}); err != nil {
		t.Fatal(err)
	}
	g.Workloads, g.Policies, g.Scale = []string{"go"}, []string{"conv"}, testScale
	if pts := g.Expand(); len(pts) != 3 {
		t.Errorf("lsq=16,64,0,128 expands to %d points, want 3 (64 is the baseline)", len(pts))
	}
}

// TestNegativeAxisValueIsPointError: a negative override would fall
// through every `> 0` guard and silently simulate the baseline under
// a false label.
func TestNegativeAxisValueIsPointError(t *testing.T) {
	t.Parallel()
	for _, ax := range MachineAxes() {
		pt := Point{Workload: "go", Policy: "conv", IntRegs: 48, FPRegs: 48, Scale: testScale}
		ax.Set(&pt, -1)
		if _, err := pt.Config(); err == nil {
			t.Errorf("axis %s: negative value accepted", ax.Name)
		}
	}
}

// TestBPredAxisRejectsOutOfRange: bpred.Config silently clamps bad
// history lengths to the default, which would let a bpred=31 point
// simulate the baseline while being cached as a distinct machine.
func TestBPredAxisRejectsOutOfRange(t *testing.T) {
	t.Parallel()
	bad := Point{Workload: "go", Policy: "conv", IntRegs: 48, FPRegs: 48,
		Scale: testScale, BPredBits: 31}
	if _, err := bad.Config(); err == nil {
		t.Fatal("bpred history bits 31 accepted (silently canonicalized to 18)")
	}
	ok := bad
	ok.BPredBits = 30
	if _, err := ok.Config(); err != nil {
		t.Fatalf("bpred=30 rejected: %v", err)
	}
}

// TestMachineAxisConfigEffect pins each axis to the pipeline.Config
// field it overrides, and each axis's zero to the Table 2 baseline.
func TestMachineAxisConfigEffect(t *testing.T) {
	t.Parallel()
	base := Point{Workload: "go", Policy: "conv", IntRegs: 48, FPRegs: 48, Scale: testScale}
	baseCfg, err := base.Config()
	if err != nil {
		t.Fatal(err)
	}
	for _, ax := range MachineAxes() {
		pt := base
		ax.Set(&pt, ax.Baseline)
		cfg, err := pt.Config()
		if err != nil {
			t.Fatalf("%s at baseline: %v", ax.Name, err)
		}
		if !reflect.DeepEqual(cfg, baseCfg) {
			t.Errorf("%s: explicit baseline %d differs from default config", ax.Name, ax.Baseline)
		}
		// A non-baseline value must change the config (and so the key).
		for _, v := range ax.Sensitivity {
			if v == 0 || v == ax.Baseline {
				continue
			}
			ax.Set(&pt, v)
			cfg, err := pt.Config()
			if err != nil {
				t.Fatalf("%s=%d: %v", ax.Name, v, err)
			}
			if reflect.DeepEqual(cfg, baseCfg) {
				t.Errorf("%s=%d did not change the config", ax.Name, v)
			}
		}
	}
}

// TestBadGeometrySurfacesAsPointError: an axis value that produces an
// unbuildable machine must fail the point, not panic the worker.
func TestBadGeometrySurfacesAsPointError(t *testing.T) {
	t.Parallel()
	bad := Point{Workload: "go", Policy: "conv", IntRegs: 48, FPRegs: 48,
		Scale: testScale, L1DKB: 3}
	if _, err := bad.Config(); err == nil {
		t.Fatal("3 KB L1D (non-power-of-two sets) accepted")
	}
	res, err := (&Engine{}).Run(Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
		L1DKBs: []int{3}, Scale: testScale}, nil)
	if err != nil {
		t.Fatalf("engine-level error for a per-point failure: %v", err)
	}
	if res.Stats.Errors != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestKeyIsContentAddressed(t *testing.T) {
	t.Parallel()
	base := Point{Workload: "tomcatv", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: testScale}
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("key not deterministic")
	}
	variants := []Point{
		{Workload: "swim", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: testScale},
		{Workload: "tomcatv", Policy: "basic", IntRegs: 48, FPRegs: 48, Scale: testScale},
		{Workload: "tomcatv", Policy: "extended", IntRegs: 56, FPRegs: 48, Scale: testScale},
		{Workload: "tomcatv", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: testScale + 1},
		{Workload: "tomcatv", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: testScale, NoReuse: true},
		{Workload: "tomcatv", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: testScale, Eager: true},
	}
	seen := map[string]string{k1: base.String()}
	for _, v := range variants {
		k, err := v.Key()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %s and %s", prev, v)
		}
		seen[k] = v.String()
	}
	if _, err := (Point{Workload: "tomcatv", Policy: "bogus", IntRegs: 48, FPRegs: 48}).Key(); err == nil {
		t.Error("bogus policy produced a key")
	}
}

func TestEngineCachesWithinAndAcrossRuns(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Cache: cache}
	g := testGrid()
	first, err := eng.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Err(); err != nil {
		t.Fatal(err)
	}
	if first.Stats.Simulated != first.Stats.Points || first.Stats.CacheHits != 0 {
		t.Errorf("cold run stats wrong: %+v", first.Stats)
	}

	// Same engine, same grid: 100% hits, identical results.
	again, err := eng.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.CacheHits != again.Stats.Points || again.Stats.Simulated != 0 {
		t.Errorf("warm run stats wrong: %+v", again.Stats)
	}

	// Fresh process (the store directory reopened): still 100% hits,
	// results bit-identical to the cold run.
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	cold := &Engine{Cache: reloaded}
	res, err := cold.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != res.Stats.Points {
		t.Errorf("persisted cache stats wrong: %+v", res.Stats)
	}
	for _, o := range first.Outcomes {
		got := res.Result(o.Point)
		if !reflect.DeepEqual(got, o.Result) {
			t.Errorf("%s: persisted result drifted\n got: %+v\nwant: %+v", o.Point, got, o.Result)
		}
	}

	// An overlapping, larger grid only simulates the new points.
	g2 := g
	g2.IntRegs = []int{40, 48, 56}
	res2, err := cold.Run(g2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.CacheHits != len(first.Outcomes) {
		t.Errorf("overlap: %d hits, want %d", res2.Stats.CacheHits, len(first.Outcomes))
	}
	if res2.Stats.Simulated != res2.Stats.Points-len(first.Outcomes) {
		t.Errorf("overlap: %d simulated, want %d", res2.Stats.Simulated, res2.Stats.Points-len(first.Outcomes))
	}
}

func TestBadWorkloadIsPerJobError(t *testing.T) {
	t.Parallel()
	cache := NewCache()
	eng := &Engine{Cache: cache}
	g := Grid{Workloads: []string{"nope", "tomcatv"}, Policies: []string{"conv"},
		IntRegs: []int{48}, Scale: testScale}
	res, err := eng.Run(g, nil)
	if err != nil {
		t.Fatalf("engine-level error for a per-job failure: %v", err)
	}
	bad := res.Find(Point{Workload: "nope", Policy: "conv", IntRegs: 48, FPRegs: 48, Scale: testScale})
	if bad == nil || bad.Err == "" || bad.Result != nil {
		t.Fatalf("bad workload outcome: %+v", bad)
	}
	if !strings.Contains(bad.Err, "nope") {
		t.Errorf("error does not name the workload: %q", bad.Err)
	}
	good := res.Find(Point{Workload: "tomcatv", Policy: "conv", IntRegs: 48, FPRegs: 48, Scale: testScale})
	if good == nil || good.Err != "" || good.Result == nil {
		t.Fatalf("good workload poisoned by failing sibling: %+v", good)
	}
	if res.Stats.Errors != 1 || res.Stats.Simulated != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
	if res.Err() == nil {
		t.Error("Results.Err() did not surface the failure")
	}
	// The failure is not cached: a rerun retries it (and misses), while
	// the good point hits.
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want only the successful point", cache.Len())
	}
	res2, err := eng.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.CacheHits != 1 || res2.Stats.Errors != 1 {
		t.Errorf("rerun stats: %+v", res2.Stats)
	}
}

func TestProgressReporting(t *testing.T) {
	t.Parallel()
	var snaps []Progress
	eng := &Engine{Parallel: 2}
	g := Grid{Workloads: []string{"go"}, Policies: []string{"conv", "basic", "extended"},
		IntRegs: []int{48}, Scale: testScale}
	res, err := eng.Run(g, func(p Progress) { snaps = append(snaps, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != res.Stats.Points {
		t.Fatalf("%d progress snapshots for %d points", len(snaps), res.Stats.Points)
	}
	for i, p := range snaps {
		if p.Total != res.Stats.Points || p.Done != i+1 || p.Named().Last == "" {
			t.Errorf("snapshot %d: %+v", i, p)
		}
	}
}
