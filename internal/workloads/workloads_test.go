package workloads

import (
	"strings"
	"sync"
	"testing"
	"time"

	"earlyrelease/internal/emu"
	"earlyrelease/internal/isa"
	"earlyrelease/internal/trace"
)

const testScale = 60_000

func TestAllWorkloadsBuildAndRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			tr, err := w.Trace(testScale)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			if tr.Len() < testScale/3 {
				t.Errorf("trace too short: %d dynamic instructions (want ~%d)", tr.Len(), testScale)
			}
			if tr.Len() > testScale*4 {
				t.Errorf("trace too long: %d dynamic instructions (want ~%d)", tr.Len(), testScale)
			}
		})
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	for _, w := range All() {
		p1 := w.Build(testScale)
		p2 := w.Build(testScale)
		m1, m2 := emu.New(p1), emu.New(p2)
		if err := m1.RunQuiet(2_000_000); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := m2.RunQuiet(2_000_000); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if m1.Checksum() != m2.Checksum() {
			t.Errorf("%s: nondeterministic final state", w.Name)
		}
	}
}

// TestIntWorkloadsAreBranchy verifies the SPEC95-int property the paper
// relies on: integer codes are branch-intensive (a control transfer
// every ~4-10 instructions).
func TestIntWorkloadsAreBranchy(t *testing.T) {
	for _, w := range ByClass(Int) {
		tr := w.MustTrace(testScale)
		mix := tr.DynamicMix()
		ctrl := mix.Branches + mix.Jumps
		every := float64(mix.Total) / float64(ctrl)
		if every > 12 {
			t.Errorf("%s: control transfer only every %.1f instructions (want <= 12)", w.Name, every)
		}
		if mix.FPArith > mix.Total/50 {
			t.Errorf("%s: unexpected FP content (%d ops)", w.Name, mix.FPArith)
		}
	}
}

// TestFPWorkloadsHavePressure verifies the SPEC95-fp property: a large
// fraction of instructions produce FP register versions (high pressure),
// with comparatively few branches.
func TestFPWorkloadsHavePressure(t *testing.T) {
	for _, w := range ByClass(FP) {
		tr := w.MustTrace(testScale)
		mix := tr.DynamicMix()
		fpFrac := float64(mix.FPWriters) / float64(mix.Total)
		if fpFrac < 0.25 {
			t.Errorf("%s: only %.0f%% of instructions write FP registers (want >= 25%%)",
				w.Name, 100*fpFrac)
		}
		brFrac := float64(mix.Branches) / float64(mix.Total)
		if brFrac > 0.12 {
			t.Errorf("%s: too branchy for an FP code (%.0f%% branches)", w.Name, 100*brFrac)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		w, err := ByName(name)
		if err != nil || w.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, w.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted junk")
	}
	if len(All()) != 16 || len(ByClass(Int)) != 9 || len(ByClass(FP)) != 6 || len(ByClass(Mixed)) != 1 {
		t.Errorf("registry shape wrong: %d total, %d int, %d fp, %d mixed",
			len(All()), len(ByClass(Int)), len(ByClass(FP)), len(ByClass(Mixed)))
	}
	if len(Paper()) != 10 || len(PaperByClass(Int)) != 5 || len(PaperByClass(FP)) != 5 {
		t.Error("paper suite is not the original 5+5 workloads")
	}
	for _, w := range Paper() {
		if !w.Paper || w.Class == Mixed {
			t.Errorf("%s: bad paper-suite entry", w.Name)
		}
	}
}

func TestScaleControlsTraceLength(t *testing.T) {
	w, _ := ByName("compress")
	small := w.MustTrace(20_000)
	large := w.MustTrace(120_000)
	if large.Len() <= small.Len() {
		t.Errorf("scale had no effect: %d vs %d", small.Len(), large.Len())
	}
}

func TestTraceCaching(t *testing.T) {
	ClearTraceCache()
	w, _ := ByName("li")
	a := w.MustTrace(testScale)
	b := w.MustTrace(testScale)
	if a != b {
		t.Error("trace cache did not memoize")
	}
	ClearTraceCache()
}

// TestTraceSharedAcrossScales pins the trace cache's sharing: tomcatv
// builds the same program at scales 12 500 and 100 000, so both return
// one trace, counted once; go's program grows with scale (one more top-
// level evaluation per 2 600 of it), so those scales keep their own. A shared trace equals a fresh emulation.
func TestTraceSharedAcrossScales(t *testing.T) {
	ClearTraceCache()
	defer ClearTraceCache()
	tomcatv, _ := ByName("tomcatv")
	small := tomcatv.MustTrace(12_500)
	large := tomcatv.MustTrace(100_000)
	if small != large {
		t.Error("tomcatv at scales 12 500 and 100 000 keeps two traces of one program")
	}
	if n, b := TraceCacheStats(); n != 1 || b != small.Bytes() {
		t.Errorf("TraceCacheStats = %d traces, %d B; want 1, %d", n, b, small.Bytes())
	}
	fresh, err := emu.New(tomcatv.Build(100_000)).Run(100_000*8 + 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != large.Len() || fresh.End != large.End {
		t.Fatalf("shared trace has %d entries ending at %#x; fresh emulation %d at %#x",
			large.Len(), large.End, fresh.Len(), fresh.End)
	}
	shared := entries(large)
	for i, e := range entries(fresh) {
		if e != shared[i] {
			t.Fatalf("entry %d: shared %+v, fresh %+v", i, shared[i], e)
		}
	}

	gw, _ := ByName("go")
	if gw.MustTrace(12_500) == gw.MustTrace(100_000) {
		t.Error("go at scales 12 500 and 100 000 share a trace")
	}
	if n, _ := TraceCacheStats(); n != 3 {
		t.Errorf("TraceCacheStats = %d traces, want 3", n)
	}
}

// TestTraceFootprint pins the trace's memory layout. Each column holds
// exactly its length: a taken bit per entry in 8-byte words, 8 bytes per
// memory entry and 4 bytes per JALR target. No column keeps the
// emulator's instruction budget (scale×8 + 1e6 entries here, about a
// hundred times the length) or append's growth slack, and the 16
// traces together hold at most 3 B per instruction. The trace's
// program keeps no data segment.
// The traces build concurrently while TraceCacheStats is polled, as a
// /metrics scrape would, and it must end up counting exactly these
// traces and their bytes. Appending a kernel's entries again with one
// that does not follow its predecessor panics.
func TestTraceFootprint(t *testing.T) {
	ClearTraceCache()
	defer ClearTraceCache()
	const scale = 10_000
	var wg sync.WaitGroup
	for _, w := range All() {
		wg.Add(1)
		go func(w Workload) {
			defer wg.Done()
			w.MustTrace(scale)
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for polling := true; polling; {
		TraceCacheStats()
		select {
		case <-done:
			polling = false
		case <-time.After(100 * time.Microsecond):
		}
	}
	var bytes, insts int64
	for _, w := range All() {
		tr := w.MustTrace(scale)
		es := entries(tr)
		n, mem, jalrs := int64(len(es)), int64(0), int64(0)
		for i, e := range es {
			in := tr.Prog.Insts[e.Idx]
			if in.IsMem() {
				mem++
			}
			if in.IsIndirect() && i+1 < len(es) {
				jalrs++
			}
		}
		if exact := 8*((n+63)/64) + 8*mem + 4*jalrs; tr.Bytes() != exact {
			t.Errorf("%s: %d entries, %d memory, %d JALR targets hold %d B; %d B at exact size",
				w.Name, n, mem, jalrs, tr.Bytes(), exact)
		}
		if tr.Prog.Data != nil {
			t.Errorf("%s: memoized trace keeps a %d-byte data segment", w.Name, len(tr.Prog.Data))
		}
		bytes += tr.Bytes()
		insts += n
	}
	if n, b := TraceCacheStats(); n != len(All()) || b != bytes {
		t.Errorf("TraceCacheStats = %d traces, %d B; want %d, %d", n, b, len(All()), bytes)
	}
	perInst := float64(bytes) / float64(insts)
	if perInst > 3 {
		t.Errorf("traces hold %.2f B per instruction, want at most 3", perInst)
	}
	t.Logf("%d traces, %d instructions: %.2f B per instruction", len(All()), insts, perInst)

	w, _ := ByName("tomcatv")
	tr := w.MustTrace(scale)
	es := entries(tr)
	es[len(es)/2].Idx++ // no instruction leads to its successor
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "predecessor") {
			t.Errorf("Append of an entry that does not follow its predecessor: panic %q", msg)
		}
	}()
	bad := trace.New(tr.Prog, len(es), 0, 0)
	for _, e := range es {
		bad.Append(e)
	}
}

// entries reads every entry of tr through a cursor.
func entries(tr *trace.Trace) []trace.Entry {
	es := make([]trace.Entry, 0, tr.Len())
	for c := tr.Start(); c.Index() < tr.Len(); {
		es = append(es, tr.Next(&c))
	}
	return es
}

// insts returns the static instruction of every entry of tr.
func insts(tr *trace.Trace) []isa.Inst {
	ins := make([]isa.Inst, 0, tr.Len())
	for _, e := range entries(tr) {
		ins = append(ins, tr.Prog.Insts[e.Idx])
	}
	return ins
}

// TestGoUsesRealCalls ensures the go kernel exercises JAL/JALR (the RAS
// path of the front end).
func TestGoUsesRealCalls(t *testing.T) {
	w, _ := ByName("go")
	tr := w.MustTrace(testScale)
	var calls, rets int
	for _, in := range insts(tr) {
		if in.Op == isa.JAL && in.Rd == isa.RA {
			calls++
		}
		if in.Op == isa.JALR && in.Rd == isa.Zero {
			rets++
		}
	}
	if calls < 100 || rets < 100 {
		t.Errorf("go kernel: %d calls / %d returns (want >= 100 each)", calls, rets)
	}
}

// TestLiIsPointerChasing verifies dependent-load behaviour: most loads
// in li feed addresses of later loads (low memory-level parallelism).
func TestLiIsPointerChasing(t *testing.T) {
	w, _ := ByName("li")
	tr := w.MustTrace(testScale)
	mix := tr.DynamicMix()
	loadFrac := float64(mix.Loads) / float64(mix.Total)
	if loadFrac < 0.2 {
		t.Errorf("li: load fraction %.2f too low for a pointer chaser", loadFrac)
	}
}

// TestListwalkIsSerialChain verifies the MLP-starved profile: listwalk
// is dominated by loads whose addresses come from the previous load.
func TestListwalkIsSerialChain(t *testing.T) {
	w, _ := ByName("listwalk")
	tr := w.MustTrace(testScale)
	mix := tr.DynamicMix()
	loadFrac := float64(mix.Loads) / float64(mix.Total)
	if loadFrac < 0.18 {
		t.Errorf("listwalk: load fraction %.2f too low for a pointer chase", loadFrac)
	}
	if mix.FPArith > 0 {
		t.Errorf("listwalk: unexpected FP content (%d ops)", mix.FPArith)
	}
}

// TestQsortIsPredictorHostile checks that the quicksort's comparison
// branches are data-dependent: taken rate near 50% with no short-period
// pattern a counter predictor could learn perfectly.
func TestQsortIsPredictorHostile(t *testing.T) {
	w, _ := ByName("qsort")
	tr := w.MustTrace(testScale)
	mix := tr.DynamicMix()
	frac := float64(mix.TakenBr) / float64(mix.Branches)
	if frac < 0.25 || frac > 0.9 {
		t.Errorf("qsort: taken fraction %.2f outside the mixed-outcome band", frac)
	}
}

// TestRdescentIsCallHeavy verifies the checkpoint-pressure profile:
// real call/return pairs every few tokens.
func TestRdescentIsCallHeavy(t *testing.T) {
	w, _ := ByName("rdescent")
	tr := w.MustTrace(testScale)
	var calls, rets int
	for _, in := range insts(tr) {
		if in.Op == isa.JAL && in.Rd == isa.RA {
			calls++
		}
		if in.Op == isa.JALR && in.Rd == isa.Zero {
			rets++
		}
	}
	if calls != rets {
		t.Errorf("rdescent: %d calls vs %d returns", calls, rets)
	}
	if calls < tr.Len()/40 {
		t.Errorf("rdescent: only %d calls in %d instructions", calls, tr.Len())
	}
}

// TestMixmodeAlternatesClasses verifies the phase-alternating profile:
// substantial int and FP content in the same trace.
func TestMixmodeAlternatesClasses(t *testing.T) {
	w, _ := ByName("mixmode")
	tr := w.MustTrace(testScale)
	mix := tr.DynamicMix()
	intFrac := float64(mix.IntWriters) / float64(mix.Total)
	fpFrac := float64(mix.FPWriters) / float64(mix.Total)
	if intFrac < 0.15 || fpFrac < 0.15 {
		t.Errorf("mixmode: writer mix int %.2f / fp %.2f not phase-balanced", intFrac, fpFrac)
	}
}

// TestAppluHasDivides confirms the long-latency chains in applu.
func TestAppluHasDivides(t *testing.T) {
	w, _ := ByName("applu")
	tr := w.MustTrace(testScale)
	var divs int
	for _, in := range insts(tr) {
		if in.Op == isa.FDIV {
			divs++
		}
	}
	if divs < tr.Len()/50 {
		t.Errorf("applu: only %d divides in %d instructions", divs, tr.Len())
	}
}
