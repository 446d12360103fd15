// Command explore searches the machine design space for the Pareto
// frontier of (harmonic-mean IPC, register-file energy per access,
// register-file access time) instead of crossing a dense grid — with
// ten machine axes plus register sizes and policies the interesting
// frontier lives in a space far too large to sweep exhaustively.
//
// The default space is everything: all three policies, the Figure 11
// register sizes, and every machine-model axis over its sensitivity
// range (~10M candidates). Strategies:
//
//	hillclimb  Pareto local search from the Table 2 baseline (default)
//	random     uniform sampling
//	halving    successive halving: wide screening at -screen-scale,
//	           survivors promoted toward full -scale
//
// All randomness flows from -seed: the same (seed, budget, space)
// yields a byte-identical frontier, and evaluations are served from
// the content-addressed sweep cache, so a warm rerun simulates
// nothing. Restrict the space with the register/policy flags and
// repeatable -axis flags (only the named axes stay free):
//
//	explore -strategy hillclimb -budget 64 -cache sweep-cache
//	explore -budget 200 -strategy halving -axis ros=32,64,128,256 -axis l1d=8,16,32
//	explore -policies conv,extended -int-regs 40,48,56,64 -fp-regs 64,72,79
//
// Like every sweep, exploration scales out through a sweepd
// coordinator: -remote URL submits the whole job to its /explore
// routes (candidate batches shard across the coordinator's workers,
// and their completions fill its shared result cache). -json writes
// the frontier (the CI explore smoke asserts it is non-empty,
// non-dominated, and fully cached on a warm rerun).
//
// Local evaluation runs candidates that share a trace back to back on
// one recycled core (DESIGN.md §4.6), bit-identical to the reference
// loop. -cpuprofile/-memprofile write runtime/pprof profiles of the
// whole search.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"earlyrelease/internal/prof"
	"earlyrelease/internal/search"
	"earlyrelease/internal/stats"
	"earlyrelease/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("explore: ")
	var (
		strategy   = flag.String("strategy", "hillclimb", "search strategy: "+strings.Join(search.StrategyNames(), ", "))
		budget     = flag.Int("budget", 64, "candidate evaluations (screening included)")
		seed       = flag.Int64("seed", 0, "random seed (same seed+budget+space = identical frontier)")
		scale      = flag.Int("scale", sweep.DefaultScale, "dynamic instructions per workload")
		screen     = flag.Int("screen-scale", 0, "halving screening scale (0 = scale/8)")
		seedBatch  = flag.Int("seed-batch", 0, "random-seeding batch size (0 = default)")
		check      = flag.Bool("check", false, "run evaluations with the invariant checker (slower)")
		workloadsF = flag.String("workloads", "", "workloads for the IPC objective (empty = paper suite)")
		policiesF  = flag.String("policies", "", "policy dimension (empty = conv,basic,extended)")
		intRegsF   = flag.String("int-regs", "", "integer file size dimension (empty = Figure 11 sizes)")
		fpRegsF    = flag.String("fp-regs", "", "FP size dimension (empty = tied to int)")
		parallel   = flag.Int("parallel", 0, "local simulation workers (0 = GOMAXPROCS)")
		cachePath  = flag.String("cache", "", "persistent result cache: a segment-store directory, created if absent")
		remote     = flag.String("remote", "", "sweepd coordinator URL: run the job on its /explore routes")
		jsonPath   = flag.String("json", "", "write the frontier JSON to this file (\"-\" = stdout)")
		statsPath  = flag.String("stats-json", "", "write run + cache statistics to this file")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the search to this file")
		memProf    = flag.String("memprofile", "", "write an allocation profile after the search to this file")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	axisVals := map[string][]int{}
	var axisOrder []string
	flag.Func("axis", "free machine axis as name=v1,v2,... (repeatable; restricts the space to the named axes; 0 = Table 2 baseline)",
		func(s string) error {
			name, vals, err := sweep.ParseAxisFlag(s)
			if err != nil {
				return err
			}
			if _, dup := axisVals[name]; !dup {
				axisOrder = append(axisOrder, name)
			}
			axisVals[name] = append(axisVals[name], vals...)
			return nil
		})
	flag.Parse()

	intRegs, err := sweep.SplitInts(*intRegsF)
	if err != nil {
		log.Fatal(err)
	}
	fpRegs, err := sweep.SplitInts(*fpRegsF)
	if err != nil {
		log.Fatal(err)
	}
	spec := search.Spec{
		Strategy:    *strategy,
		Budget:      *budget,
		Seed:        *seed,
		Scale:       *scale,
		ScreenScale: *screen,
		Batch:       *seedBatch,
		Check:       *check,
		Workloads:   sweep.SplitList(*workloadsF),
	}
	// Any space flag pins the space; -axis lists name the axes that
	// stay free (none named = machine axes pinned to Table 2). With no
	// space flags at all, the full default space is searched.
	if len(axisVals) > 0 || *policiesF != "" || len(intRegs) > 0 || len(fpRegs) > 0 {
		sp := &search.Space{Policies: sweep.SplitList(*policiesF), IntRegs: intRegs, FPRegs: fpRegs}
		for _, name := range axisOrder {
			sp.Axes = append(sp.Axes, search.AxisRange{Name: name, Values: axisVals[name]})
		}
		if len(sp.Axes) == 0 {
			// Pin every machine axis to its baseline.
			for _, ax := range sweep.MachineAxes() {
				sp.Axes = append(sp.Axes, search.AxisRange{Name: ax.Name, Values: []int{ax.Baseline}})
			}
		}
		spec.Space = sp
	}

	if *remote != "" && *cachePath != "" {
		log.Fatal("-remote runs the job on the coordinator (which owns the cache); " +
			"it cannot be combined with -cache")
	}

	stopProf, err := prof.Start(*cpuProf)
	if err != nil {
		log.Fatal(err)
	}

	progress := func(done, total int, last string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\r%d/%d evaluations, %s", done, total, last+strings.Repeat(" ", 20))
		}
	}
	var fr *search.Frontier
	var cacheStats sweep.CacheStats
	if *remote != "" {
		fr, err = search.NewClient(*remote).Run(spec, func(p search.Progress) {
			progress(p.Evaluations+p.ScreenEvaluations, p.Budget, p.Last)
		})
	} else {
		eng := &sweep.Engine{Parallel: *parallel}
		if *cachePath != "" {
			if eng.Cache, err = sweep.OpenCache(*cachePath); err != nil {
				log.Fatal(err)
			}
		}
		fr, err = (&search.Explorer{Eval: eng}).Run(spec, func(p search.Progress) {
			progress(p.Evaluations+p.ScreenEvaluations, p.Budget, p.Last)
		})
		if eng.Cache != nil {
			cacheStats = eng.Cache.Stats()
			if cerr := eng.Cache.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	stopProf()
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		log.Fatal(err)
	}
	if perr := prof.WriteHeap(*memProf); perr != nil {
		log.Fatal(perr)
	}

	t := stats.NewTable("policy", "int+fp", "machine", "hm IPC", "E/acc (pJ)", "t/acc (ns)", "early/1k")
	for _, e := range fr.Frontier {
		machine := "table2"
		if len(e.Candidate.Machine) > 0 {
			var parts []string
			for _, ax := range sweep.MachineAxes() {
				if v, ok := e.Candidate.Machine[ax.Name]; ok {
					parts = append(parts, fmt.Sprintf("%s=%d", ax.Name, v))
				}
			}
			machine = strings.Join(parts, ",")
		}
		t.AddRow(e.Candidate.Policy,
			fmt.Sprintf("%d+%d", e.Candidate.IntRegs, e.Candidate.FPRegs),
			machine,
			fmt.Sprintf("%.3f", e.Objectives.IPC),
			fmt.Sprintf("%.0f", e.Objectives.EnergyPJ),
			fmt.Sprintf("%.2f", e.Objectives.AccessNs),
			fmt.Sprintf("%.1f", e.Objectives.EarlyPerKilo))
	}
	fmt.Printf("Pareto frontier: %d of %d evaluated candidates (space %d, strategy %s, seed %d)\n",
		len(fr.Frontier), fr.Evaluations, fr.SpaceSize, fr.Spec.Strategy, fr.Spec.Seed)
	fmt.Print(t.String())

	log.Printf("%d rounds: %d full + %d screening evaluations, %d candidate errors; "+
		"%d points (%d simulated, %d cached)",
		fr.Rounds, fr.Evaluations, fr.ScreenEvaluations, fr.CandidateErrors,
		fr.Points.Points, fr.Points.Simulated, fr.Points.CacheHits)

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(fr, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		blob = append(blob, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *statsPath != "" {
		blob, _ := json.MarshalIndent(struct {
			Rounds       int              `json:"rounds"`
			Evaluations  int              `json:"evaluations"`
			ScreenEvals  int              `json:"screen_evaluations"`
			Errors       int              `json:"candidate_errors"`
			FrontierSize int              `json:"frontier_size"`
			NonDominated bool             `json:"non_dominated"`
			Points       sweep.RunStats   `json:"points"`
			Cache        sweep.CacheStats `json:"cache"`
		}{fr.Rounds, fr.Evaluations, fr.ScreenEvaluations, fr.CandidateErrors,
			len(fr.Frontier), fr.NonDominated, fr.Points, cacheStats}, "", "  ")
		if err := os.WriteFile(*statsPath, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if len(fr.Frontier) == 0 || !fr.NonDominated {
		log.Fatal("exploration produced no usable frontier")
	}
}
