package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: earlyrelease
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPolicyConvTomcatv 	       3	  31497396 ns/op	   5.29 MB/s	         0.9433 sim-IPC
BenchmarkPolicyBasicTomcatv-8 	       3	  30220810 ns/op	   5.51 MB/s	         1.404 sim-IPC
BenchmarkPolicyConvGo 	       3	   6105766 ns/op	   4.08 MB/s	         1.678 sim-IPC
BenchmarkFig9 	   12345	    97531 ns/op	        12.00 LUsTable-ns
PASS
`

func baseEntries(vals map[string][3]float64) map[string]baselineEntry {
	out := make(map[string]baselineEntry)
	for name, v := range vals {
		var e baselineEntry
		e.After.NsOp, e.After.MBs, e.After.SimIPC = v[0], v[1], v[2]
		out[name] = e
	}
	return out
}

func TestParseBench(t *testing.T) {
	run, err := parseBench([]byte(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(run) != 3 {
		t.Fatalf("parsed %d results, want 3 (Fig9 has no MB/s+sim-IPC): %+v", len(run), run)
	}
	// With and without the -procs suffix.
	if r := run["BenchmarkPolicyBasicTomcatv"]; r.MBs != 5.51 || r.SimIPC != 1.404 {
		t.Fatalf("suffix-stripped result: %+v", r)
	}
	if r := run["BenchmarkPolicyConvTomcatv"]; r.NsOp != 31497396 || r.MBs != 5.29 {
		t.Fatalf("plain result: %+v", r)
	}
	if _, err := parseBench([]byte("PASS\nok\n")); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

func TestParseBenchKeepsBestOfRepeats(t *testing.T) {
	out := "BenchmarkPolicyConvGo \t 1 \t 700 ns/op\t 3.00 MB/s\t 1.678 sim-IPC\n" +
		"BenchmarkPolicyConvGo \t 1 \t 500 ns/op\t 4.20 MB/s\t 1.678 sim-IPC\n"
	run, err := parseBench([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if run["BenchmarkPolicyConvGo"].MBs != 4.20 {
		t.Fatalf("did not keep best repeat: %+v", run)
	}
}

func TestCompareWithinBandPasses(t *testing.T) {
	base := baseEntries(map[string][3]float64{
		"A": {100, 5.00, 1.5},
		"B": {100, 4.00, 1.2},
	})
	run := map[string]benchResult{
		"A": {MBs: 4.60, SimIPC: 1.5}, // −8%, inside 15%
		"B": {MBs: 4.10, SimIPC: 1.2},
	}
	rep := compare(base, run, 0.15, 0.001, false)
	if !rep.Pass {
		t.Fatalf("within-band run failed: %+v", rep)
	}
}

func TestCompareCatchesRegression(t *testing.T) {
	base := baseEntries(map[string][3]float64{
		"A": {100, 5.00, 1.5},
		"B": {100, 4.00, 1.2},
		"C": {100, 3.00, 1.1},
	})
	run := map[string]benchResult{
		"A": {MBs: 5.00, SimIPC: 1.5},
		"B": {MBs: 4.00, SimIPC: 1.2},
		"C": {MBs: 2.00, SimIPC: 1.1}, // −33%
	}
	rep := compare(base, run, 0.15, 0.001, true)
	if rep.Pass {
		t.Fatal("regression passed the gate")
	}
	if v := rep.Benchmarks["C"]; v.Pass || len(v.FailureReasons) == 0 ||
		!strings.Contains(v.FailureReasons[0], "throughput regression") {
		t.Fatalf("verdict for C: %+v", v)
	}
	if !rep.Benchmarks["A"].Pass || !rep.Benchmarks["B"].Pass {
		t.Fatalf("healthy benchmarks dragged down: %+v", rep.Benchmarks)
	}
}

// TestCompareNormalizesMachineSpeed: a uniformly slower machine (every
// benchmark −40%) passes with -normalize because the median ratio is
// divided out; the same numbers fail a raw comparison.
func TestCompareNormalizesMachineSpeed(t *testing.T) {
	base := baseEntries(map[string][3]float64{
		"A": {100, 5.00, 1.5},
		"B": {100, 4.00, 1.2},
		"C": {100, 3.00, 1.1},
	})
	run := map[string]benchResult{
		"A": {MBs: 3.00, SimIPC: 1.5},
		"B": {MBs: 2.40, SimIPC: 1.2},
		"C": {MBs: 1.80, SimIPC: 1.1},
	}
	if rep := compare(base, run, 0.15, 0.001, true); !rep.Pass {
		t.Fatalf("uniform slowdown failed normalized gate: %+v", rep)
	}
	if rep := compare(base, run, 0.15, 0.001, false); rep.Pass {
		t.Fatal("uniform slowdown passed the raw gate")
	}

	// A relative regression on the slow machine still fails: C drops
	// another 30% beyond the fleet-wide slowdown.
	run["C"] = benchResult{MBs: 1.26, SimIPC: 1.1}
	rep := compare(base, run, 0.15, 0.001, true)
	if rep.Pass || rep.Benchmarks["C"].Pass {
		t.Fatalf("relative regression slipped through normalization: %+v", rep.Benchmarks["C"])
	}
}

// TestCompareGatesSimIPC: throughput may breathe, the reproduced IPC
// may not — a drifted sim-IPC fails even at full speed.
func TestCompareGatesSimIPC(t *testing.T) {
	base := baseEntries(map[string][3]float64{"A": {100, 5.00, 1.5}})
	rep := compare(base, map[string]benchResult{"A": {MBs: 6.00, SimIPC: 1.497}}, 0.15, 0.001, true)
	if rep.Pass {
		t.Fatal("sim-IPC drift passed")
	}
	if !strings.Contains(rep.Benchmarks["A"].FailureReasons[0], "sim-IPC drift") {
		t.Fatalf("verdict: %+v", rep.Benchmarks["A"])
	}
	// Rounding-level wobble (the JSON records 4 significant digits) is
	// tolerated.
	rep = compare(base, map[string]benchResult{"A": {MBs: 6.00, SimIPC: 1.50004}}, 0.15, 0.001, true)
	if !rep.Pass {
		t.Fatalf("rounding-level IPC wobble failed: %+v", rep.Benchmarks["A"])
	}
}

const sampleSweepBench = `goos: linux
pkg: earlyrelease/internal/sweep
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkSweepScalar    	       2	3268070606 ns/op	        19.58 points/s
BenchmarkSweepBatch-8   	       2	 426054026 ns/op	       150.2 points/s
BenchmarkSweepScalarMix 	       2	2707697230 ns/op	        23.64 points/s
BenchmarkSweepBatchMix  	       2	2012702559 ns/op	        31.80 points/s
BenchmarkPolicyConvGo 	       3	   6105766 ns/op	   4.08 MB/s	         1.678 sim-IPC
PASS
`

func sweepPairs() map[string]sweepPair {
	return map[string]sweepPair{
		"Explorer": {Scalar: "BenchmarkSweepScalar", Batch: "BenchmarkSweepBatch", MinRatio: 5.0},
		"Mix":      {Scalar: "BenchmarkSweepScalarMix", Batch: "BenchmarkSweepBatchMix", MinRatio: 1.0},
	}
}

func TestParseSweepBench(t *testing.T) {
	run, err := parseSweepBench([]byte(sampleSweepBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(run) != 4 {
		t.Fatalf("parsed %d results, want 4 (the MB/s line has no points/s): %+v", len(run), run)
	}
	// With and without the -procs suffix.
	if !slices.Equal(run["BenchmarkSweepBatch"], []float64{150.2}) ||
		!slices.Equal(run["BenchmarkSweepScalar"], []float64{19.58}) {
		t.Fatalf("parsed: %+v", run)
	}
	if _, err := parseSweepBench([]byte("PASS\nok\n")); err == nil {
		t.Fatal("empty sweep bench output accepted")
	}

	// Repeats are all kept, in the order printed, so rounds pair up.
	out := "BenchmarkSweepBatch \t 1 \t 500 ns/op\t 140.0 points/s\n" +
		"BenchmarkSweepBatch \t 1 \t 700 ns/op\t 100.0 points/s\n"
	run, err = parseSweepBench([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(run["BenchmarkSweepBatch"], []float64{140.0, 100.0}) {
		t.Fatalf("repeats not kept in order: %+v", run)
	}
}

func TestCompareSweepPasses(t *testing.T) {
	run, err := parseSweepBench([]byte(sampleSweepBench))
	if err != nil {
		t.Fatal(err)
	}
	rep := compareSweep(sweepPairs(), run)
	if !rep.Pass {
		t.Fatalf("healthy ratios failed: %+v", rep)
	}
	v := rep.Pairs["Explorer"]
	if v.Ratio < 7.6 || v.Ratio > 7.8 {
		t.Fatalf("Explorer ratio %.3f, want ≈7.67", v.Ratio)
	}
}

func TestCompareSweepCatchesRatioDrop(t *testing.T) {
	run := map[string][]float64{
		"BenchmarkSweepScalar": {20.0}, "BenchmarkSweepBatch": {80.0}, // 4.0x < 5.0 floor
		"BenchmarkSweepScalarMix": {23.0}, "BenchmarkSweepBatchMix": {31.0},
	}
	rep := compareSweep(sweepPairs(), run)
	if rep.Pass || rep.Pairs["Explorer"].Pass {
		t.Fatalf("4.0x passed the 5.0 floor: %+v", rep)
	}
	if !rep.Pairs["Mix"].Pass {
		t.Fatalf("healthy Mix pair dragged down: %+v", rep.Pairs["Mix"])
	}
	if !strings.Contains(rep.Pairs["Explorer"].FailureReasons[0], "below the 5.00 floor") {
		t.Fatalf("reasons: %+v", rep.Pairs["Explorer"].FailureReasons)
	}
}

func TestCompareSweepFailsOnMissingBenchmark(t *testing.T) {
	// Deleting the scalar side must not delete the gate.
	run := map[string][]float64{
		"BenchmarkSweepBatch":     {80.0},
		"BenchmarkSweepScalarMix": {23.0}, "BenchmarkSweepBatchMix": {31.0},
	}
	rep := compareSweep(sweepPairs(), run)
	if rep.Pass || rep.Pairs["Explorer"].Pass {
		t.Fatalf("missing scalar benchmark passed: %+v", rep)
	}
	if !strings.Contains(rep.Pairs["Explorer"].FailureReasons[0], "missing") {
		t.Fatalf("reasons: %+v", rep.Pairs["Explorer"].FailureReasons)
	}
}

// sweepRounds prints interleaved rounds of the four sweep benchmarks,
// each round's Mix ratio given by mix.
func sweepRounds(mix ...float64) string {
	var out strings.Builder
	for _, r := range mix {
		fmt.Fprintf(&out, "BenchmarkSweepScalar \t 2 \t 1 ns/op\t 20.0 points/s\n")
		fmt.Fprintf(&out, "BenchmarkSweepBatch \t 2 \t 1 ns/op\t 150.0 points/s\n")
		fmt.Fprintf(&out, "BenchmarkSweepScalarMix \t 2 \t 1 ns/op\t 20.0 points/s\n")
		fmt.Fprintf(&out, "BenchmarkSweepBatchMix \t 2 \t 1 ns/op\t %.1f points/s\n", 20*r)
	}
	return out.String()
}

func TestCompareSweepMedianIgnoresOutlierRound(t *testing.T) {
	// One slow batch round among five does not flip the verdict.
	run, err := parseSweepBench([]byte(sweepRounds(1.1, 1.2, 0.69, 1.15, 1.1)))
	if err != nil {
		t.Fatal(err)
	}
	rep := compareSweep(sweepPairs(), run)
	v := rep.Pairs["Mix"]
	if !rep.Pass || !v.Pass {
		t.Fatalf("one outlier round failed the gate: %+v", v)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if v.Rounds != 5 || !near(v.Ratio, 1.1) || !near(v.LowRatio, 0.69) || !near(v.HighRatio, 1.2) {
		t.Fatalf("Mix verdict %+v, want 5 rounds, median 1.10, spread 0.69–1.20", v)
	}
}

func TestCompareSweepFailsOnLowMedian(t *testing.T) {
	// Two lucky rounds do not carry a median below the floor.
	run, err := parseSweepBench([]byte(sweepRounds(0.9, 1.3, 0.95, 0.8, 1.2)))
	if err != nil {
		t.Fatal(err)
	}
	rep := compareSweep(sweepPairs(), run)
	v := rep.Pairs["Mix"]
	if rep.Pass || v.Pass {
		t.Fatalf("median 0.95 passed the 1.0 floor: %+v", v)
	}
	if !rep.Pairs["Explorer"].Pass {
		t.Fatalf("healthy Explorer pair dragged down: %+v", rep.Pairs["Explorer"])
	}
	if !strings.Contains(v.FailureReasons[0], "median batch/scalar ratio 0.95 over 5 rounds below the 1.00 floor") {
		t.Fatalf("reasons: %+v", v.FailureReasons)
	}

	// Sides whose rounds do not pair up fail too.
	run["BenchmarkSweepBatchMix"] = run["BenchmarkSweepBatchMix"][:4]
	if rep := compareSweep(sweepPairs(), run); rep.Pass || !strings.Contains(
		rep.Pairs["Mix"].FailureReasons[0], "do not pair up") {
		t.Fatalf("unpaired rounds passed: %+v", rep.Pairs["Mix"])
	}
}

func TestCompareFailsOnMissing(t *testing.T) {
	base := baseEntries(map[string][3]float64{
		"A": {100, 5.00, 1.5},
		"B": {100, 4.00, 1.2},
	})
	rep := compare(base, map[string]benchResult{"A": {MBs: 5.0, SimIPC: 1.5}}, 0.15, 0.001, true)
	if len(rep.Missing) != 1 || rep.Missing[0] != "B" {
		t.Fatalf("missing list: %+v", rep.Missing)
	}
	// A benchmark vanishing from the run fails the gate — otherwise the
	// suite could shrink one deletion at a time and never regress.
	if rep.Pass {
		t.Fatal("missing benchmark passed the gate")
	}
	if rep := compare(base, map[string]benchResult{"X": {MBs: 1, SimIPC: 1}}, 0.15, 0.001, true); rep.Pass {
		t.Fatal("run sharing no benchmarks with the baseline passed")
	}
}
