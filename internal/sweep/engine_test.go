package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"earlyrelease/internal/workloads"
)

// TestEngineReusesSimState pins the engine's recycling of pool worker
// cores across runs: a repeated run allocates a fraction of the first,
// recycled cores give byte-identical outcomes even after a geometry
// change, a mixed-geometry run and concurrent runs leave at most
// Parallel cores behind, and an idle engine holds no trace.
func TestEngineReusesSimState(t *testing.T) {
	const parallel = 2
	first := Grid{
		Workloads: []string{"go"},
		Policies:  []string{"extended"},
		IntRegs:   []int{40, 48},
		BPredBits: []int{10, 0},
		Scale:     500,
	}.Expand()
	// A checker point runs Core.Run, so the recycled cores run both
	// loops.
	single := Point{Workload: "go", Policy: "extended", IntRegs: 44, FPRegs: 44, Scale: 300, Check: true}
	first = append(first, single)
	// Different cache and predictor geometries and latencies, so that
	// recycled lanes must reshape.
	second := Grid{
		Workloads: []string{"go"},
		Policies:  []string{"basic"},
		IntRegs:   []int{48},
		L2KBs:     []int{256, 0},
		MemLats:   []int{200, 0},
		BPredBits: []int{12},
		Scale:     500,
	}.Expand()
	for _, pt := range append(first, second...) {
		wl, err := workloads.ByName(pt.Workload)
		if err != nil {
			t.Fatal(err)
		}
		wl.MustTrace(pt.Scale) // keep trace builds out of the allocation counts
	}

	ctx := context.Background()
	eng := &Engine{Parallel: parallel}
	run := func(e *Engine, pts []Point) (out []byte, alloc uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := e.RunPointsCtx(ctx, pts, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		out, err = json.Marshal(res.Outcomes)
		if err != nil {
			t.Fatal(err)
		}
		return out, after.TotalAlloc - before.TotalAlloc
	}

	out1, alloc1 := run(eng, first)
	out2, alloc2 := run(eng, first)
	t.Logf("first run allocated %d B, repeated run %d B", alloc1, alloc2)
	if alloc2*4 >= alloc1 {
		t.Errorf("repeated run allocated %d B, first run %d B; want under a quarter", alloc2, alloc1)
	}
	if !bytes.Equal(out1, out2) {
		t.Error("repeated run's outcomes differ from the first's")
	}
	idleCores := func() int {
		eng.idleMu.Lock()
		defer eng.idleMu.Unlock()
		return len(eng.idle)
	}
	reshaped, _ := run(eng, second)
	if fresh, _ := run(&Engine{Parallel: parallel}, second); !bytes.Equal(reshaped, fresh) {
		t.Error("recycled lanes' outcomes differ from a fresh engine's after a geometry change")
	}
	if kept := idleCores(); kept == 0 || kept > parallel {
		t.Errorf("engine keeps %d idle cores after a mixed-geometry run, want 1..%d", kept, parallel)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.RunPointsCtx(ctx, first, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if kept := idleCores(); kept == 0 || kept > parallel {
		t.Errorf("engine keeps %d idle cores after concurrent runs, want 1..%d", kept, parallel)
	}

	// The finalizer of the trace the engine last ran runs once the
	// trace cache lets go of it: no idle state still references it.
	wl, _ := workloads.ByName("go")
	freed := make(chan struct{})
	runtime.SetFinalizer(wl.MustTrace(500), func(any) { close(freed) })
	workloads.ClearTraceCache()
	deadline := time.Now().Add(5 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("trace still reachable after ClearTraceCache and GC: the idle engine holds it")
			}
		}
	}
	runtime.KeepAlive(eng)
}

// TestEnginePointTimes pins per-point timing on the lease path: each
// simulated point of a multi-point job gets its own nonzero time, not a
// share of its job's.
func TestEnginePointTimes(t *testing.T) {
	pts := Grid{
		Workloads: []string{"go"},
		Policies:  []string{"conv", "extended"},
		IntRegs:   []int{40, 48},
		BPredBits: []int{10, 0},
		Scale:     500,
	}.Expand()
	grant := &LeaseGrant{Items: make([]WorkItem, len(pts))}
	for i, pt := range pts {
		key, err := pt.Key()
		if err != nil {
			t.Fatal(err)
		}
		grant.Items[i] = WorkItem{Point: pt, Key: key}
	}
	outs, pointNS, err := (&Engine{Parallel: 1}).RunLease(context.Background(), grant)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i, ns := range pointNS {
		if outs[i].Err != "" {
			t.Fatalf("point %s: %s", pts[i], outs[i].Err)
		}
		if ns <= 0 {
			t.Errorf("point %s: time %d ns", pts[i], ns)
		}
		seen[ns] = true
	}
	if len(seen) < 2 {
		t.Errorf("all %d points report the same time %v", len(pts), pointNS)
	}
}
