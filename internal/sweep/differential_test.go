package sweep

import (
	"fmt"
	"reflect"
	"testing"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/workloads"
)

// The differential suite extends the golden/Reset equality pattern of
// internal/pipeline/golden_test.go to the two properties the sweep
// engine leans on:
//
//   - the invariant checker is an observer: Check=true runs produce
//     bit-identical Results to unchecked runs across the whole
//     (policy × reuse/eager × size) matrix;
//   - a result served from the engine's cache equals a result computed
//     by a fresh core outside the engine, field for field.

// diffMatrix is the (policy × ablation × size) cross the suite covers,
// on one high-pressure FP workload and one branchy int workload.
func diffMatrix() []Point {
	var pts []Point
	for _, w := range []string{"tomcatv", "go"} {
		for _, pol := range []string{"conv", "basic", "extended"} {
			for _, ab := range []struct{ noReuse, eager bool }{
				{false, false}, {true, false}, {false, true},
			} {
				for _, size := range []int{40, 48} {
					pts = append(pts, Point{
						Workload: w, Policy: pol, IntRegs: size, FPRegs: size,
						Scale: 15_000, NoReuse: ab.noReuse, Eager: ab.eager,
					})
				}
			}
		}
	}
	return pts
}

// runFresh simulates a point on a brand-new core, outside the engine.
func runFresh(t *testing.T, pt Point) *pipeline.Result {
	t.Helper()
	res, err := scalarRun(pt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// scalarRun is the reference simulation of one point: Core.Run on a
// fresh core, outside the engine, failing with the engine's error
// shapes.
func scalarRun(pt Point) (*pipeline.Result, error) {
	w, err := workloads.ByName(pt.Workload)
	if err != nil {
		return nil, err
	}
	tr, err := w.Trace(pt.Scale)
	if err != nil {
		return nil, err
	}
	cfg, err := pt.Config()
	if err != nil {
		return nil, err
	}
	core, err := pipeline.New(cfg, tr)
	var r *pipeline.Result
	if err == nil {
		r, err = core.Run()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pt, err)
	}
	return r, nil
}

func TestCheckedRunsMatchUnchecked(t *testing.T) {
	t.Parallel()
	for _, pt := range diffMatrix() {
		pt := pt
		t.Run(pt.String(), func(t *testing.T) {
			t.Parallel()
			unchecked := runFresh(t, pt)
			checked := pt
			checked.Check = true
			got := runFresh(t, checked)
			if !reflect.DeepEqual(got, unchecked) {
				t.Errorf("checker changed the result\n checked: %+v\nunchecked: %+v", got, unchecked)
			}
		})
	}
}

// TestMachineAxisResultsMatchFreshCores extends the recycled-core
// equality standard to the machine-model axes: a worker whose Core is
// Reset across different window, predictor and cache geometries must
// produce results bit-identical to fresh cores, and the axes must
// actually bite (a 32-entry window cannot match a 256-entry one).
func TestMachineAxisResultsMatchFreshCores(t *testing.T) {
	t.Parallel()
	g := Grid{Workloads: []string{"tomcatv", "go"}, Policies: []string{"extended"},
		ROSSizes: []int{32, 0, 256}, BPredBits: []int{10, 0}, L1DKBs: []int{8, 0},
		Scale: 15_000}
	eng := &Engine{Parallel: 2, Cache: NewCache()}
	res, err := eng.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		fresh := runFresh(t, o.Point)
		if !reflect.DeepEqual(o.Result, fresh) {
			t.Errorf("%s: recycled-core result differs from fresh core\ncached: %+v\n fresh: %+v",
				o.Point, o.Result, fresh)
		}
	}
	pt := Point{Workload: "tomcatv", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: 15_000}
	small, big := pt, pt
	small.ROSSize, big.ROSSize = 32, 256
	if s, b := res.Result(small), res.Result(big); s.IPC >= b.IPC {
		t.Errorf("window axis had no effect: ros32 IPC %.3f >= ros256 IPC %.3f", s.IPC, b.IPC)
	}
}

func TestCachedResultsMatchFreshCores(t *testing.T) {
	t.Parallel()
	eng := &Engine{Cache: NewCache()}
	g := Grid{
		Workloads: []string{"tomcatv", "go"},
		Policies:  []string{"conv", "basic", "extended"},
		IntRegs:   []int{40, 48},
		NoReuse:   []bool{false, true},
		Eager:     []bool{false, true},
		Scale:     15_000,
	}
	// First run fills the cache from recycled worker cores.
	if _, err := eng.Run(g, nil); err != nil {
		t.Fatal(err)
	}
	// Second run must be served entirely from the cache.
	res, err := eng.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != res.Stats.Points {
		t.Fatalf("second run not fully cached: %+v", res.Stats)
	}
	for _, o := range res.Outcomes {
		fresh := runFresh(t, o.Point)
		if !reflect.DeepEqual(o.Result, fresh) {
			t.Errorf("%s: cached result differs from fresh core\ncached: %+v\n fresh: %+v",
				o.Point, o.Result, fresh)
		}
	}
}
