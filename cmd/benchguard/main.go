// Command benchguard is the CI benchmark-regression gate: it parses
// `go test -bench BenchmarkPolicy` output, compares each benchmark's
// MB/s (simulated instructions per second) against the committed
// BENCH_core.json reference, and exits nonzero when any benchmark
// regresses past the tolerance band (default 15%).
//
//	go test -run xxx -bench BenchmarkPolicy -benchtime 3x . | \
//	    go run ./cmd/benchguard -baseline BENCH_core.json -out BENCH_guard.ci.json
//
// The reference was captured on one specific machine, so raw MB/s on a
// different (or noisy, or faster) runner would gate on hardware, not
// code. With -normalize (the default) the guard first estimates the
// machine-speed ratio as the median of new/baseline across all
// benchmarks, divides it out, and applies the tolerance band to the
// residual — a uniform slowdown (different CPU) passes, while one
// benchmark regressing relative to its peers fails. -normalize=false
// compares raw MB/s for same-machine A/B runs.
//
// sim-IPC is compared too, with a much tighter band (0.1%): throughput
// may wobble with the hardware, but the reproduced microarchitectural
// IPC is deterministic and must not move at all.
//
// -mode sweep gates the sweep engine's win over the scalar reference
// loop instead: for each pair named in BENCH_sweep.json it divides the
// k-th batch line's points/s by the k-th scalar line's, and fails when
// the median of those per-round ratios drops below the pair's
// min_ratio. Both sides of a round run on the same host in one
// `go test` process, so the gate is machine-independent, and a noisy
// stretch of the host hits both sides of a round, not one side alone:
//
//	for i in 1 2 3 4 5; do
//	    go test -run xxx -bench BenchmarkSweep -benchtime 2x ./internal/sweep
//	done | go run ./cmd/benchguard -mode sweep -baseline BENCH_sweep.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
)

// baselineEntry mirrors one benchmark in BENCH_core.json, whose
// committed form records a before/after pair per optimization PR; the
// "after" numbers are the current reference.
type baselineEntry struct {
	After struct {
		NsOp   float64 `json:"ns_op"`
		MBs    float64 `json:"mb_s"`
		SimIPC float64 `json:"sim_ipc"`
	} `json:"after"`
}

type baselineFile struct {
	CPU        string                   `json:"cpu"`
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

// benchResult is one parsed `go test -bench` line.
type benchResult struct {
	NsOp   float64 `json:"ns_op"`
	MBs    float64 `json:"mb_s"`
	SimIPC float64 `json:"sim_ipc"`
}

var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.e+]+) ns/op\s+([\d.e+]+) MB/s\s+([\d.e+]+) sim-IPC`)

// parseBench extracts BenchmarkPolicy* results from `go test -bench`
// output. Repeated runs of one benchmark keep the best MB/s (the
// standard way to shed scheduler noise).
func parseBench(out []byte) (map[string]benchResult, error) {
	results := make(map[string]benchResult)
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(out), -1) {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var r benchResult
		var err error
		if r.NsOp, err = strconv.ParseFloat(m[2], 64); err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		if r.MBs, err = strconv.ParseFloat(m[3], 64); err != nil {
			return nil, fmt.Errorf("bad MB/s in %q: %v", line, err)
		}
		if r.SimIPC, err = strconv.ParseFloat(m[4], 64); err != nil {
			return nil, fmt.Errorf("bad sim-IPC in %q: %v", line, err)
		}
		if prev, ok := results[m[1]]; !ok || r.MBs > prev.MBs {
			results[m[1]] = r
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines with MB/s and sim-IPC found")
	}
	return results, nil
}

// sweepPair mirrors one scalar/batch benchmark pair in
// BENCH_sweep.json. The recorded points/s are documentation (captured
// on one reference machine); only min_ratio gates.
type sweepPair struct {
	Scalar   string  `json:"scalar"`
	Batch    string  `json:"batch"`
	MinRatio float64 `json:"min_ratio"`
}

type sweepBaselineFile struct {
	Pairs map[string]sweepPair `json:"pairs"`
}

var sweepLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.e+]+) ns/op\s+([\d.e+]+) points/s`)

// parseSweepBench extracts points/s results from `go test -bench`
// output: every line of each benchmark, in the order printed.
func parseSweepBench(out []byte) (map[string][]float64, error) {
	results := make(map[string][]float64)
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(out), -1) {
		m := sweepLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad points/s in %q: %v", line, err)
		}
		results[m[1]] = append(results[m[1]], v)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines with points/s found")
	}
	return results, nil
}

// sweepVerdict is one pair's comparison outcome over its rounds: the
// points/s and the ratio are medians, Low/HighRatio the extreme rounds.
type sweepVerdict struct {
	Rounds         int      `json:"rounds"`
	ScalarPointsS  float64  `json:"scalar_points_s"`
	BatchPointsS   float64  `json:"batch_points_s"`
	Ratio          float64  `json:"ratio"`
	LowRatio       float64  `json:"low_ratio"`
	HighRatio      float64  `json:"high_ratio"`
	MinRatio       float64  `json:"min_ratio"`
	Pass           bool     `json:"pass"`
	FailureReasons []string `json:"failure_reasons,omitempty"`
}

type sweepReport struct {
	Pass  bool                    `json:"pass"`
	Pairs map[string]sweepVerdict `json:"pairs"`
}

// compareSweep applies each pair's ratio floor to the median of its
// per-round ratios. A missing benchmark fails the pair — deleting the
// scalar side would otherwise delete the gate — and so do sides with
// different line counts, whose rounds cannot be paired.
func compareSweep(base map[string]sweepPair, run map[string][]float64) sweepReport {
	rep := sweepReport{Pass: true, Pairs: make(map[string]sweepVerdict)}
	for name, p := range base {
		v := sweepVerdict{MinRatio: p.MinRatio, Pass: true}
		fail := func(format string, a ...any) {
			v.Pass = false
			v.FailureReasons = append(v.FailureReasons, fmt.Sprintf(format, a...))
		}
		for _, side := range []string{p.Scalar, p.Batch} {
			if len(run[side]) == 0 {
				fail("%s missing from this run", side)
			}
		}
		scalar, batch := run[p.Scalar], run[p.Batch]
		if v.Pass && len(scalar) != len(batch) {
			fail("%d %s lines but %d %s lines: rounds do not pair up",
				len(scalar), p.Scalar, len(batch), p.Batch)
		}
		if v.Pass {
			ratios := make([]float64, len(scalar))
			for k := range scalar {
				ratios[k] = batch[k] / scalar[k]
			}
			v.Rounds = len(ratios)
			v.ScalarPointsS, v.BatchPointsS = median(scalar), median(batch)
			v.Ratio, v.LowRatio, v.HighRatio = median(ratios), slices.Min(ratios), slices.Max(ratios)
			if v.Ratio < p.MinRatio {
				fail("median batch/scalar ratio %.2f over %d rounds below the %.2f floor (rounds %.2f–%.2f)",
					v.Ratio, v.Rounds, p.MinRatio, v.LowRatio, v.HighRatio)
			}
		}
		if !v.Pass {
			rep.Pass = false
		}
		rep.Pairs[name] = v
	}
	return rep
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// runSweepMode is the -mode sweep entry point.
func runSweepMode(baselineBlob, benchOut []byte, outPath string) {
	var base sweepBaselineFile
	if err := json.Unmarshal(baselineBlob, &base); err != nil {
		log.Fatalf("parse sweep baseline: %v", err)
	}
	if len(base.Pairs) == 0 {
		log.Fatal("sweep baseline holds no pairs")
	}
	run, err := parseSweepBench(benchOut)
	if err != nil {
		log.Fatal(err)
	}
	rep := compareSweep(base.Pairs, run)
	if outPath != "" {
		blob, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	names := make([]string, 0, len(rep.Pairs))
	for name := range rep.Pairs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rep.Pairs[name]
		status := "ok"
		if !v.Pass {
			status = "FAIL"
		}
		log.Printf("%-12s batch %8.1f points/s / scalar %7.2f points/s: median %.2fx over %d rounds (%.2f–%.2fx, floor %.2fx)  %s",
			name, v.BatchPointsS, v.ScalarPointsS, v.Ratio, v.Rounds, v.LowRatio, v.HighRatio, v.MinRatio, status)
		for _, r := range v.FailureReasons {
			log.Printf("  ↳ %s", r)
		}
	}
	if !rep.Pass {
		log.Fatal("sweep engine speedup below its floor")
	}
	log.Printf("all pairs above their ratio floors")
}

// verdict is one benchmark's comparison outcome.
type verdict struct {
	benchResult
	BaselineMBs    float64  `json:"baseline_mb_s"`
	BaselineIPC    float64  `json:"baseline_sim_ipc"`
	NormalizedMBs  float64  `json:"normalized_mb_s"`
	Ratio          float64  `json:"ratio"` // new/baseline before normalization
	Pass           bool     `json:"pass"`
	FailureReasons []string `json:"failure_reasons,omitempty"`
}

type report struct {
	Tolerance    float64            `json:"tolerance"`
	IPCTolerance float64            `json:"ipc_tolerance"`
	Normalize    bool               `json:"normalize"`
	SpeedRatio   float64            `json:"machine_speed_ratio"` // median new/baseline
	Pass         bool               `json:"pass"`
	Benchmarks   map[string]verdict `json:"benchmarks"`
	Missing      []string           `json:"missing,omitempty"` // in baseline, absent from the run
}

// compare applies the tolerance bands. Baseline entries missing from
// the run fail the gate outright — a silently shrinking benchmark
// suite would otherwise hollow the guard out one deletion at a time.
// (Renaming a benchmark legitimately means updating BENCH_core.json in
// the same change.)
func compare(base map[string]baselineEntry, run map[string]benchResult,
	tolerance, ipcTolerance float64, normalize bool) report {
	rep := report{Tolerance: tolerance, IPCTolerance: ipcTolerance,
		Normalize: normalize, SpeedRatio: 1, Pass: true,
		Benchmarks: make(map[string]verdict)}

	var ratios []float64
	for name, b := range base {
		if r, ok := run[name]; ok && b.After.MBs > 0 {
			ratios = append(ratios, r.MBs/b.After.MBs)
		} else if !ok {
			rep.Missing = append(rep.Missing, name)
		}
	}
	sort.Strings(rep.Missing)
	if len(rep.Missing) > 0 {
		rep.Pass = false
	}
	if len(ratios) == 0 {
		rep.Pass = false
		return rep
	}
	if normalize {
		rep.SpeedRatio = median(ratios)
	}

	for name, b := range base {
		r, ok := run[name]
		if !ok || b.After.MBs <= 0 {
			continue
		}
		v := verdict{benchResult: r, BaselineMBs: b.After.MBs, BaselineIPC: b.After.SimIPC,
			Ratio: r.MBs / b.After.MBs, NormalizedMBs: r.MBs / rep.SpeedRatio, Pass: true}
		if v.NormalizedMBs < b.After.MBs*(1-tolerance) {
			v.Pass = false
			v.FailureReasons = append(v.FailureReasons, fmt.Sprintf(
				"throughput regression: %.2f MB/s (%.2f machine-normalized) vs baseline %.2f, below the %.0f%% band",
				r.MBs, v.NormalizedMBs, b.After.MBs, 100*tolerance))
		}
		if b.After.SimIPC > 0 && math.Abs(r.SimIPC-b.After.SimIPC)/b.After.SimIPC > ipcTolerance {
			v.Pass = false
			v.FailureReasons = append(v.FailureReasons, fmt.Sprintf(
				"sim-IPC drift: %.4f vs pinned %.4f — the simulator's results moved, not just its speed",
				r.SimIPC, b.After.SimIPC))
		}
		if !v.Pass {
			rep.Pass = false
		}
		rep.Benchmarks[name] = v
	}
	return rep
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")
	var (
		mode         = flag.String("mode", "core", "core: per-core MB/s + sim-IPC gate; sweep: batch/scalar points/s ratio gate")
		baselinePath = flag.String("baseline", "BENCH_core.json", "committed reference numbers")
		benchPath    = flag.String("bench", "-", "go test -bench output file (- = stdin)")
		tolerance    = flag.Float64("tolerance", 0.15, "allowed relative MB/s regression")
		ipcTol       = flag.Float64("ipc-tolerance", 0.001, "allowed relative sim-IPC drift")
		normalize    = flag.Bool("normalize", true, "divide out the median machine-speed ratio before gating")
		outPath      = flag.String("out", "", "write the comparison report JSON here")
	)
	flag.Parse()
	if *mode != "core" && *mode != "sweep" {
		log.Fatalf("unknown -mode %q (want core or sweep)", *mode)
	}

	blob, err := os.ReadFile(*baselinePath)
	if err != nil {
		log.Fatal(err)
	}
	var out []byte
	if *benchPath == "-" {
		out, err = io.ReadAll(os.Stdin)
	} else {
		out, err = os.ReadFile(*benchPath)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *mode == "sweep" {
		runSweepMode(blob, out, *outPath)
		return
	}

	var base baselineFile
	if err := json.Unmarshal(blob, &base); err != nil {
		log.Fatalf("parse %s: %v", *baselinePath, err)
	}
	if len(base.Benchmarks) == 0 {
		log.Fatalf("%s holds no benchmarks", *baselinePath)
	}

	run, err := parseBench(out)
	if err != nil {
		log.Fatal(err)
	}

	rep := compare(base.Benchmarks, run, *tolerance, *ipcTol, *normalize)
	if *outPath != "" {
		blob, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	names := make([]string, 0, len(rep.Benchmarks))
	for name := range rep.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rep.Benchmarks[name]
		status := "ok"
		if !v.Pass {
			status = "FAIL"
		}
		log.Printf("%-32s %7.2f MB/s (norm %6.2f, base %6.2f, ratio %.2f) sim-IPC %.4f  %s",
			name, v.MBs, v.NormalizedMBs, v.BaselineMBs, v.Ratio, v.SimIPC, status)
		for _, r := range v.FailureReasons {
			log.Printf("  ↳ %s", r)
		}
	}
	for _, name := range rep.Missing {
		log.Printf("%-32s missing from this run (baseline has it)", name)
	}
	log.Printf("machine speed ratio %.3f, tolerance %.0f%%", rep.SpeedRatio, 100**tolerance)
	if !rep.Pass {
		log.Fatal("benchmark regression detected")
	}
	log.Printf("all benchmarks within the band")
}
