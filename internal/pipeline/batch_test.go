package pipeline

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"earlyrelease/internal/release"
	"earlyrelease/internal/trace"
	"earlyrelease/internal/workloads"
)

// The batch differential suite pins BatchCore bit-identical to the
// scalar reference: for every configuration the full Result — cycles,
// IPC, stall and release breakdowns, predictor and cache rates,
// register-lifetime averages — must equal an independent Core.Run.

const batchDiffScale = 4_000

// batchMatrix builds the per-workload lane list for the differential
// matrix: every release policy, the ablation flags, and one variant per
// machine axis (window, LSQ, widths, front end, predictor, caches,
// memory latency), plus checker and fault-injection lanes. The lanes
// halt at very different cycle counts, so every batch is ragged.
func batchMatrix() []Config {
	mk := func(kind release.Kind, regs int, mut func(*Config)) Config {
		cfg := DefaultConfig(kind, regs, regs)
		cfg.TrackRegStates = true
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}
	return []Config{
		mk(release.Conventional, 48, nil),
		mk(release.Basic, 48, nil),
		mk(release.Extended, 48, nil),
		mk(release.Basic, 48, func(c *Config) { c.Policy.Eager = true }),
		mk(release.Extended, 48, func(c *Config) { c.Policy.Reuse = false }),
		mk(release.Conventional, 40, nil),
		mk(release.Extended, 48, func(c *Config) { c.ROSSize = 32 }),
		mk(release.Basic, 48, func(c *Config) { c.LSQSize = 8 }),
		mk(release.Conventional, 48, func(c *Config) { c.FetchWidth = 2; c.IssueWidth = 2 }),
		mk(release.Extended, 48, func(c *Config) { c.FrontEndDepth = 8; c.BPred.HistoryBits = 10 }),
		mk(release.Basic, 48, func(c *Config) { c.Mem.L1D.SizeBytes = 8 << 10 }),
		mk(release.Extended, 48, func(c *Config) {
			c.Mem.L1D.SizeBytes = 8 << 10
			c.Mem.MemLat = 200
			c.IssueWidth = 2
		}),
		mk(release.Extended, 44, func(c *Config) { c.Check = true }),
		mk(release.Conventional, 48, func(c *Config) {
			c.FaultAt = []int{50, 500}
			c.Check = true
		}),
	}
}

// runScalar runs one config through the reference path.
func runScalar(t *testing.T, cfg Config, w workloads.Workload, scale int) (*Result, error) {
	t.Helper()
	tr, err := w.Trace(scale)
	if err != nil {
		t.Fatal(err)
	}
	core, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return core.Run()
}

func TestBatchMatchesScalarAcrossCorpus(t *testing.T) {
	cfgs := batchMatrix()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			tr, err := w.Trace(batchDiffScale)
			if err != nil {
				t.Fatal(err)
			}
			batch := NewBatch(tr)
			got, errs := batch.Run(cfgs)
			for i, cfg := range cfgs {
				if errs[i] != nil {
					t.Fatalf("lane %d: %v", i, errs[i])
				}
				want, err := runScalar(t, cfg, w, batchDiffScale)
				if err != nil {
					t.Fatalf("scalar %d: %v", i, err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("lane %d diverged from scalar\n got: %+v\nwant: %+v", i, got[i], want)
				}
			}
		})
	}
}

// TestBatchLaneErrorIsolation puts a lane that aborts on its cycle
// limit and a lane with an invalid config in the middle of a batch and
// requires (a) the failing lanes to report exactly the scalar path's
// errors and (b) the sibling lanes to stay bit-identical to scalar.
func TestBatchLaneErrorIsolation(t *testing.T) {
	w, err := workloads.ByName("go")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Trace(batchDiffScale)
	if err != nil {
		t.Fatal(err)
	}

	good := DefaultConfig(release.Extended, 48, 48)
	good.TrackRegStates = true
	limited := DefaultConfig(release.Basic, 48, 48)
	limited.TrackRegStates = true
	limited.MaxCycles = 100 // aborts mid-flight
	invalid := DefaultConfig(release.Conventional, 48, 48)
	invalid.IssueWidth = 0 // fails Validate
	good2 := DefaultConfig(release.Conventional, 40, 40)
	good2.TrackRegStates = true

	batch := NewBatch(tr)
	got, errs := batch.Run([]Config{good, limited, invalid, good2})

	for _, i := range []int{0, 3} {
		if errs[i] != nil {
			t.Fatalf("lane %d: unexpected error %v", i, errs[i])
		}
	}
	for _, i := range []int{1, 2} {
		if errs[i] == nil {
			t.Fatalf("lane %d: expected an error", i)
		}
		if got[i] != nil {
			t.Fatalf("lane %d: result despite error", i)
		}
	}

	// Failing lanes match the scalar path's behavior exactly.
	core, err := New(limited, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(); err == nil || err.Error() != errs[1].Error() {
		t.Errorf("cycle-limit error diverged: batch %q, scalar %v", errs[1], err)
	}
	if _, err := New(invalid, tr); err == nil || err.Error() != errs[2].Error() {
		t.Errorf("config error diverged: batch %q, scalar %v", errs[2], err)
	}

	// Sibling lanes are undisturbed.
	for _, i := range []int{0, 3} {
		cfg := good
		if i == 3 {
			cfg = good2
		}
		want, err := runScalar(t, cfg, w, batchDiffScale)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("lane %d poisoned by sibling failure\n got: %+v\nwant: %+v", i, got[i], want)
		}
	}
}

// TestBatchCoreReuse drives one BatchCore across traces and batch
// sizes, as the sweep workers do, and requires its recycled core to
// match fresh scalar runs bit for bit.
func TestBatchCoreReuse(t *testing.T) {
	cfgs := batchMatrix()[:6]
	var batch *BatchCore
	for _, name := range []string{"tomcatv", "go", "tomcatv"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.Trace(batchDiffScale)
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			batch = NewBatch(tr)
		} else {
			batch.SetTrace(tr)
		}
		n := len(cfgs)
		if name == "go" {
			n = 3 // shrink the batch
		}
		got, errs := batch.Run(cfgs[:n])
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("%s lane %d: %v", name, i, errs[i])
			}
			want, err := runScalar(t, cfgs[i], w, batchDiffScale)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s lane %d diverged after recycle", name, i)
			}
		}
	}
}

// TestGoldenCasesThroughBatch replays the golden pin cases through the
// batch path: the same configurations whose Results are pinned in
// testdata/golden.json must come out identical when batched.
func TestGoldenCasesThroughBatch(t *testing.T) {
	byWork := map[string][]goldenCase{}
	var order []string
	for _, gc := range goldenCases() {
		if len(byWork[gc.Work]) == 0 {
			order = append(order, gc.Work)
		}
		byWork[gc.Work] = append(byWork[gc.Work], gc)
	}
	for _, work := range order {
		cases := byWork[work]
		w, err := workloads.ByName(work)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.Trace(goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := make([]Config, len(cases))
		for i, gc := range cases {
			cfg := DefaultConfig(gc.Kind, gc.IntRegs, gc.FPRegs)
			cfg.TrackRegStates = true
			cfg.Check = gc.Check
			cfg.Policy.Reuse = !gc.NoReuse
			cfg.Policy.Eager = gc.Eager
			cfg.FaultAt = gc.Faults
			cfgs[i] = cfg
		}
		got, errs := NewBatch(tr).Run(cfgs)
		for i, gc := range cases {
			if errs[i] != nil {
				t.Fatalf("%s: %v", gc.Name, errs[i])
			}
			want := runGoldenCase(t, gc)
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s: batch diverged from scalar golden case", gc.Name)
			}
		}
	}
}

// TestLaneFootprint pins what one Table 2 core costs to build: with the
// gshare counters packed four to a byte and one metadata byte per cache
// line, pipeline.New allocates under 300 KB (a byte per counter and an
// 18-byte line record cost about 632 KB).
func TestLaneFootprint(t *testing.T) {
	w, err := workloads.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Trace(1_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(release.Extended, 48, 48)
	var least uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := New(cfg, tr); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; try == 0 || n < least {
			least = n
		}
	}
	const limit = 300 << 10
	t.Logf("pipeline.New allocated %d bytes", least)
	if least > limit {
		t.Errorf("pipeline.New allocated %d bytes, want at most %d", least, limit)
	}
}

// orderMix is a configuration list that changes every piece of state a
// recycled core carries between runs: release policy, the reuse and
// eager ablations, register-file size, L2 size, gshare history, ROS and
// LSQ size, and memory latency.
func orderMix() []Config {
	mk := func(kind release.Kind, regs int, mut func(*Config)) Config {
		cfg := DefaultConfig(kind, regs, regs)
		cfg.TrackRegStates = true
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}
	return []Config{
		mk(release.Conventional, 48, nil),
		mk(release.Basic, 40, func(c *Config) { c.Mem.L2.SizeBytes = 256 << 10 }),
		mk(release.Extended, 48, func(c *Config) { c.BPred.HistoryBits = 10 }),
		mk(release.Extended, 44, func(c *Config) { c.Policy.Reuse = false; c.ROSSize = 64 }),
		mk(release.Basic, 48, func(c *Config) { c.Policy.Eager = true; c.Mem.MemLat = 200 }),
		mk(release.Conventional, 40, func(c *Config) {
			c.BPred.HistoryBits = 12
			c.Mem.L2.SizeBytes = 256 << 10
		}),
		mk(release.Extended, 48, func(c *Config) { c.ROSSize = 32; c.LSQSize = 16 }),
		mk(release.Basic, 48, func(c *Config) { c.Mem.MemLat = 200; c.BPred.HistoryBits = 10 }),
	}
}

// scalarJSON runs each configuration on a fresh core through Run and
// returns the results as JSON.
func scalarJSON(t testing.TB, cfgs []Config, tr *trace.Trace) [][]byte {
	t.Helper()
	out := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		core, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run()
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestBatchOrderIndependent runs one mixed list through one BatchCore
// in forward, reversed and shuffled order, then on a different trace,
// then on the first trace again. Whatever ran before on the recycled
// core, every result must equal a fresh core's Run byte for byte.
func TestBatchOrderIndependent(t *testing.T) {
	cfgs := orderMix()
	var traces [2]*trace.Trace
	var want [2][][]byte
	for k, name := range []string{"tomcatv", "go"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if traces[k], err = w.Trace(batchDiffScale); err != nil {
			t.Fatal(err)
		}
		want[k] = scalarJSON(t, cfgs, traces[k])
	}
	forward := make([]int, len(cfgs))
	reversed := make([]int, len(cfgs))
	for i := range cfgs {
		forward[i], reversed[len(cfgs)-1-i] = i, i
	}
	shuffled := rand.New(rand.NewSource(1)).Perm(len(cfgs))

	batch := NewBatch(traces[0])
	for _, run := range []struct {
		name string
		tr   int
		perm []int
	}{
		{"forward", 0, forward},
		{"reversed", 0, reversed},
		{"shuffled", 0, shuffled},
		{"other trace", 1, shuffled},
		{"first trace again", 0, reversed},
	} {
		batch.SetTrace(traces[run.tr])
		list := make([]Config, len(cfgs))
		for k, i := range run.perm {
			list[k] = cfgs[i]
		}
		got, errs := batch.Run(list)
		for k, i := range run.perm {
			if errs[k] != nil {
				t.Fatalf("%s: config %d: %v", run.name, i, errs[k])
			}
			blob, err := json.Marshal(got[k])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, want[run.tr][i]) {
				t.Errorf("%s: config %d differs from a fresh core\n got: %s\nwant: %s",
					run.name, i, blob, want[run.tr][i])
			}
		}
	}
}

// FuzzBatchOrder checks BatchCore against the scalar Core.Run on a
// small trace for fuzz-chosen lists of configurations: each input byte
// picks one configuration's policy, register-file size, gshare history,
// L2 size, ROS, LSQ and memory latency, and the byte order is the list
// order. The list runs forward and then reversed on one BatchCore.
func FuzzBatchOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0x00, 0xff, 0x00})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0})
	f.Add([]byte{0x08, 0x18, 0x08, 0x18, 0x80, 0x80})
	w, err := workloads.ByName("go")
	if err != nil {
		f.Fatal(err)
	}
	tr, err := w.Trace(1_000)
	if err != nil {
		f.Fatal(err)
	}
	kinds := []release.Kind{release.Conventional, release.Basic, release.Extended, release.Extended}
	f.Fuzz(func(t *testing.T, genes []byte) {
		genes = slices.Clone(genes[:min(len(genes), 8)])
		cfgs := make([]Config, len(genes))
		for i, g := range genes {
			regs := 48 - 8*int(g>>2&1)
			cfg := DefaultConfig(kinds[g&3], regs, regs)
			cfg.TrackRegStates = true
			cfg.Policy.Reuse = g&3 != 3
			if g&8 != 0 {
				cfg.BPred.HistoryBits = 10
			}
			if g&16 != 0 {
				cfg.Mem.L2.SizeBytes = 256 << 10
			}
			if g&32 != 0 {
				cfg.ROSSize = 32
			}
			if g&64 != 0 {
				cfg.LSQSize = 16
			}
			if g&128 != 0 {
				cfg.Mem.MemLat = 200
			}
			cfgs[i] = cfg
		}
		want := scalarJSON(t, cfgs, tr)
		batch := NewBatch(tr)
		for pass := 0; pass < 2; pass++ {
			got, errs := batch.Run(cfgs)
			for i := range cfgs {
				if errs[i] != nil {
					t.Fatalf("pass %d, config %d (gene %#x): %v", pass, i, genes[i], errs[i])
				}
				blob, err := json.Marshal(got[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, want[i]) {
					t.Fatalf("pass %d, config %d (gene %#x) differs from scalar\n got: %s\nwant: %s",
						pass, i, genes[i], blob, want[i])
				}
			}
			slices.Reverse(cfgs)
			slices.Reverse(want)
			slices.Reverse(genes)
		}
	})
}
