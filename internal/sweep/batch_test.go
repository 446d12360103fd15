package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// The engine-level suite pins the engine's fast loop to the scalar
// reference: every outcome — result, key and error text — equals what
// Core.Run gives the same point on a fresh core, across the policy ×
// ablation × machine-axis matrix and the whole workload corpus, with
// checker points and per-point failures mixed in.

// batchSweepPoints is the differential point list: the full corpus
// crossed with policies, ablations and machine-axis variants, plus
// per-point error cases and checker points. Groups are deliberately
// ragged — points halt thousands of cycles apart.
func batchSweepPoints() []Point {
	g := Grid{
		Policies: []string{"conv", "basic", "extended"},
		IntRegs:  []int{40, 48},
		Scale:    2_000,
		ROSSizes: []int{0, 32},
	}
	pts := g.Expand() // all 16 workloads × 3 policies × 2 sizes × 2 windows
	extra := []Point{
		{Workload: "tomcatv", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: 2_000, Eager: true},
		{Workload: "tomcatv", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: 2_000, NoReuse: true},
		{Workload: "listwalk", Policy: "basic", IntRegs: 48, FPRegs: 48, Scale: 2_000, MemLat: 200, L1DKB: 8},
		{Workload: "go", Policy: "conv", IntRegs: 48, FPRegs: 48, Scale: 2_000, IssueWidth: 2, FrontEnd: 8},
		// Checker points: the reference loop inside a fast run.
		{Workload: "go", Policy: "extended", IntRegs: 44, FPRegs: 44, Scale: 2_000, Check: true},
		{Workload: "tomcatv", Policy: "basic", IntRegs: 48, FPRegs: 48, Scale: 2_000, Check: true},
		// Per-point failures mid-list: bad axis value and unknown workload.
		{Workload: "tomcatv", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: 2_000, BPredBits: 31},
		{Workload: "nosuch", Policy: "conv", IntRegs: 48, FPRegs: 48, Scale: 2_000},
	}
	return append(pts, extra...)
}

// scalarOutcome is the reference outcome of one point, from scalarRun.
func scalarOutcome(pt Point) *Outcome {
	o := &Outcome{Point: pt}
	var err error
	if o.Key, err = pt.Key(); err == nil {
		o.Result, err = scalarRun(pt)
	}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

func TestBatchedSweepMatchesScalarEngine(t *testing.T) {
	pts := batchSweepPoints()
	res, err := (&Engine{Cache: NewCache()}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(pts) {
		t.Fatalf("%d outcomes for %d points", len(res.Outcomes), len(pts))
	}
	for i, pt := range pts {
		got, want := res.Outcomes[i], scalarOutcome(pt)
		if got.Point != want.Point || got.Key != want.Key || got.Err != want.Err {
			t.Errorf("%s: outcome metadata diverged\nengine: %+v\nscalar: %+v", pt, got, want)
			continue
		}
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Errorf("%s: engine result diverged from scalar\n got: %+v\nwant: %+v",
				pt, got.Result, want.Result)
		}
	}
	if res.Stats.Errors != 2 {
		t.Errorf("expected exactly the two injected errors, got %d", res.Stats.Errors)
	}
}

// TestAcceptanceGridMatchesScalar runs the 192-point acceptance grid
// through the engine and every point through Core.Run on a fresh core:
// the outcome JSON must be byte-identical.
func TestAcceptanceGridMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the 192-point grid twice at scale 40 000")
	}
	pts := acceptanceGrid(40_000).Expand()
	res, err := (&Engine{Cache: NewCache()}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		got, err := json.Marshal(res.Outcomes[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(scalarOutcome(pt))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: outcome differs from Core.Run\nengine: %s\nscalar: %s", pt, got, want)
		}
	}
}

// TestBatchedSweepWarmRerun reruns a sweep against its own cache: every
// point must come back a cache hit with the stored result.
func TestBatchedSweepWarmRerun(t *testing.T) {
	g := Grid{
		Workloads: []string{"tomcatv", "go"},
		Policies:  []string{"conv", "extended"},
		IntRegs:   []int{40, 48},
		Scale:     2_000,
	}
	eng := &Engine{Cache: NewCache()}
	first, err := eng.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Simulated != first.Stats.Points {
		t.Fatalf("cold run did not simulate every point: %+v", first.Stats)
	}
	second, err := eng.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheHits != second.Stats.Points || second.Stats.Simulated != 0 {
		t.Fatalf("warm rerun missed the cache: %+v", second.Stats)
	}
	for i := range first.Outcomes {
		if !reflect.DeepEqual(first.Outcomes[i].Result, second.Outcomes[i].Result) {
			t.Errorf("%s: cached result differs from simulated", first.Outcomes[i].Point)
		}
	}
}

// TestGroupJobs pins how misses become worker jobs: one group per
// (workload, scale, Check) key in first-appearance order, cut into runs
// of at most groupCap, every miss in exactly one job.
func TestGroupJobs(t *testing.T) {
	pt := func(w string, scale int, check bool) Point {
		return Point{Workload: w, Policy: "conv", IntRegs: 48, FPRegs: 48, Scale: scale, Check: check}
	}
	type key struct {
		workload string
		scale    int
		check    bool
	}
	type job struct {
		key
		n int
	}
	var misses []miss
	add := func(p Point, n int) {
		for k := 0; k < n; k++ {
			misses = append(misses, miss{i: len(misses), pt: p})
		}
	}
	// Interleaved keys: first appearance is go@1000, tomcatv@1000,
	// go@1000 checked, go@2000.
	add(pt("go", 1000, false), 3)
	add(pt("tomcatv", 1000, false), 20)
	add(pt("go", 1000, true), 2)
	add(pt("go", 1000, false), 37) // go@1000 has 40 misses: 16/16/8
	add(pt("go", 2000, false), 1)
	add(pt("tomcatv", 1000, false), 1)

	want := []job{
		{key{"go", 1000, false}, 16}, {key{"go", 1000, false}, 16}, {key{"go", 1000, false}, 8},
		{key{"tomcatv", 1000, false}, 16}, {key{"tomcatv", 1000, false}, 5},
		{key{"go", 1000, true}, 2},
		{key{"go", 2000, false}, 1},
	}
	jobs := groupJobs(misses)
	if len(jobs) != len(want) {
		t.Fatalf("%d jobs, want %d", len(jobs), len(want))
	}
	seen := make([]int, len(misses))
	for i, j := range jobs {
		if len(j) != want[i].n {
			t.Errorf("job %d has %d misses, want %d", i, len(j), want[i].n)
		}
		last := -1
		for _, m := range j {
			if got := (key{m.pt.Workload, m.pt.Scale, m.pt.Check}); got != want[i].key {
				t.Errorf("job %d holds %+v, want key %+v", i, got, want[i].key)
			}
			if m.i <= last {
				t.Errorf("job %d: miss %d after %d, want input order", i, m.i, last)
			}
			last = m.i
			seen[m.i]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("miss %d is in %d jobs, want exactly 1", i, n)
		}
	}
	if groupJobs(nil) != nil {
		t.Error("no misses must make no jobs")
	}
}

// TestResultsFindConcurrent hammers the lazily built point index from
// many goroutines; under -race this pins the Find/Result lazy-init fix.
func TestResultsFindConcurrent(t *testing.T) {
	g := Grid{Workloads: []string{"go"}, Policies: []string{"conv", "extended"},
		IntRegs: []int{40, 48}, Scale: 2_000}
	res, err := (&Engine{}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := g.Expand()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, pt := range pts {
				if o := res.Find(pt); o == nil {
					t.Errorf("%s: not found", pt)
					return
				}
				if r := res.Result(pt); r == nil {
					t.Errorf("%s: no result", pt)
					return
				}
			}
		}()
	}
	wg.Wait()
}
