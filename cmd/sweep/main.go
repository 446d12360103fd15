// Command sweep runs one declarative parameter grid from the command
// line — the one-shot counterpart of the sweepd service. Axes are
// comma-separated lists; empty axes take the paper's defaults (the
// whole workload corpus, all three policies, 48+48 registers on the
// Table 2 machine).
//
//	sweep -workloads tomcatv,swim -policies conv,extended -int-regs 40,48,64
//	sweep -cache sweep-cache -scale 300000        # incremental reruns
//
// -cache names a directory holding the sharded segment-log store
// (DESIGN.md §4.7), created on first use; each new result is appended,
// never rewritten with the corpus. Cache maintenance verbs run against
// it and exit: -export streams the corpus as NDJSON, -import merges an
// export (skipping present keys unless -import-overwrite), -compact
// rewrites store segments that have decayed below the live-ratio
// threshold:
//
//	sweep -cache results/ -export corpus.ndjson
//	sweep -cache results/ -import corpus.ndjson
//	sweep -cache results/ -compact
//
// Machine-model axes are swept with repeatable -axis flags (0 names
// the Table 2 baseline, so "variants plus default" grids are easy);
// -axes lists the available axes:
//
//	sweep -axis ros=32,64,0,256 -axis issue=2,4,0 -workloads tomcatv
//	sweep -axis lsq=16,0 -axis bpred=10,0 -cache sweep-cache
//
// With -json the full outcomes (every Result field) are printed;
// otherwise a compact IPC table. -stats-json FILE writes the run and
// cache statistics (the CI smokes upload these).
//
// Points sharing a (workload, scale) trace run back to back on one
// recycled core over one decoded trace, through the fast loop that
// skips idle cycles (DESIGN.md §4.6); results are bit-identical to the
// reference loop, which -check points keep.
// -cpuprofile/-memprofile write runtime/pprof profiles of the run.
//
// Grids can scale past one machine through a sweepd coordinator
// (DESIGN.md §4.3): -remote URL submits the grid for federated
// execution across the coordinator's workers, whose completions fill
// the coordinator's shared result cache — results are byte-identical
// to a local run:
//
//	sweep -remote http://coordinator:8080 -workloads tomcatv -int-regs 40,48,64
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"earlyrelease/internal/prof"
	"earlyrelease/internal/search"
	"earlyrelease/internal/stats"
	"earlyrelease/internal/sweep"
)

// machineCol summarizes a point's machine-model overrides for the
// result table ("table2" when every axis sits at the baseline).
func machineCol(p sweep.Point) string {
	var parts []string
	for _, ax := range sweep.MachineAxes() {
		if v := ax.Get(p); v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", ax.Name, v))
		}
	}
	if len(parts) == 0 {
		return "table2"
	}
	return strings.Join(parts, ",")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		workloadsF = flag.String("workloads", "", "comma-separated workloads (empty = all)")
		policiesF  = flag.String("policies", "", "comma-separated policies: conv,basic,extended (empty = all)")
		intRegsF   = flag.String("int-regs", "", "comma-separated integer file sizes (empty = 48)")
		fpRegsF    = flag.String("fp-regs", "", "comma-separated FP file sizes (empty = mirror int)")
		scale      = flag.Int("scale", sweep.DefaultScale, "dynamic instructions per workload")
		check      = flag.Bool("check", false, "enable invariant checking")
		ablate     = flag.Bool("ablate", false, "also sweep the no-reuse and eager ablations")
		parallel   = flag.Int("parallel", 0, "workers (0 = GOMAXPROCS)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write an allocation profile after the run to this file")
		cachePath  = flag.String("cache", "", "persistent result cache: a segment-store directory, created if absent")
		exportF    = flag.String("export", "", "write the -cache corpus as NDJSON to FILE (\"-\" = stdout) and exit")
		importF    = flag.String("import", "", "merge an NDJSON export from FILE (\"-\" = stdin) into the -cache and exit")
		importOver = flag.Bool("import-overwrite", false, "with -import, replace existing entries instead of skipping them")
		compactF   = flag.Bool("compact", false, "compact the -cache store's stale segments and exit")
		remote     = flag.String("remote", "", "sweepd coordinator URL: submit the grid for federated execution")
		remoteTok  = flag.String("remote-token", "", "tenant API token for -remote submission (sweepd -tokens)")
		jsonOut    = flag.Bool("json", false, "print full outcomes as JSON")
		statsPath  = flag.String("stats-json", "", "write run + cache statistics to this file")
		quiet      = flag.Bool("q", false, "suppress progress output")
		listAxes   = flag.Bool("axes", false, "list the machine-model axes and exit")
	)
	axisVals := map[string][]int{}
	flag.Func("axis", "machine-model axis as name=v1,v2,... (repeatable; 0 = Table 2 baseline)",
		func(s string) error {
			name, vals, err := sweep.ParseAxisFlag(s)
			if err != nil {
				return err
			}
			axisVals[name] = append(axisVals[name], vals...)
			return nil
		})
	flag.Parse()

	if *listAxes {
		for _, ax := range sweep.MachineAxes() {
			fmt.Printf("%-10s %s (Table 2: %d; explore default: %v)\n",
				ax.Name, ax.Doc, ax.Baseline, search.DefaultAxisValues(ax))
		}
		return
	}

	intRegs, err := sweep.SplitInts(*intRegsF)
	if err != nil {
		log.Fatal(err)
	}
	fpRegs, err := sweep.SplitInts(*fpRegsF)
	if err != nil {
		log.Fatal(err)
	}
	g := sweep.Grid{
		Workloads: sweep.SplitList(*workloadsF),
		Policies:  sweep.SplitList(*policiesF),
		IntRegs:   intRegs,
		FPRegs:    fpRegs,
		Scale:     *scale,
		Check:     *check,
	}
	if *ablate {
		g.NoReuse = []bool{false, true}
		g.Eager = []bool{false, true}
	}
	for name, vals := range axisVals {
		if err := g.SetAxis(name, vals); err != nil {
			log.Fatal(err)
		}
	}

	// Federated submission runs nothing locally, so a local cache
	// would be silently dead weight — reject the combination instead
	// of letting a -cache store quietly stop filling.
	if *remote != "" && *cachePath != "" {
		log.Fatal("-remote submits the grid to the coordinator (which owns the cache); " +
			"it cannot be combined with -cache")
	}
	eng := &sweep.Engine{Parallel: *parallel}
	if *cachePath != "" {
		if eng.Cache, err = sweep.OpenCache(*cachePath); err != nil {
			log.Fatal(err)
		}
	}

	// Cache maintenance verbs operate on the opened cache and exit.
	if *importF != "" || *exportF != "" || *compactF {
		if eng.Cache == nil {
			log.Fatal("-export, -import and -compact need -cache")
		}
		if err := cacheOps(eng.Cache, *exportF, *importF, *importOver, *compactF); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Ctrl-C (or a SIGTERM) abandons a federated wait cleanly — the
	// sweep keeps running on the coordinator and a rerun reattaches to
	// its cached results.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stopProf, err := prof.Start(*cpuProf)
	if err != nil {
		log.Fatal(err)
	}

	progress := func(p sweep.Progress) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\r%d/%d done (%d cached, %d errors)   ",
				p.Done, p.Total, p.CacheHits, p.Errors)
		}
	}
	var res *sweep.Results
	if *remote != "" {
		// Federated execution: the coordinator plans the grid into
		// leased shards and its workers do the simulating.
		res, err = sweep.NewClient(*remote).SetToken(*remoteTok).RunGrid(ctx, g, progress)
	} else {
		res, err = eng.Run(g, progress)
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
	if res.SaveErr != "" {
		log.Printf("warning: results below are complete but were not persisted: %s", res.SaveErr)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	} else {
		// The power columns come from the shared derived-metrics
		// helper (sweep.Derive), the same model the explorer's
		// objectives and the sensitivity driver use.
		t := stats.NewTable("workload", "policy", "int+fp", "machine", "IPC",
			"E/acc (pJ)", "t/acc (ns)", "cycles", "source")
		for _, o := range res.Outcomes {
			src := "run"
			if o.Cached {
				src = "cache"
			}
			if o.Err != "" {
				t.AddRow(o.Point.Workload, o.Point.Policy,
					fmt.Sprintf("%d+%d", o.Point.IntRegs, o.Point.FPRegs),
					machineCol(o.Point), "-", "-", "-", "-", "error: "+o.Err)
				continue
			}
			d := sweep.Derive(o.Point, o.Result)
			t.AddRow(o.Point.Workload, o.Point.Policy,
				fmt.Sprintf("%d+%d", o.Point.IntRegs, o.Point.FPRegs),
				machineCol(o.Point),
				fmt.Sprintf("%.3f", d.IPC),
				fmt.Sprintf("%.0f", d.EnergyPJ),
				fmt.Sprintf("%.2f", d.AccessNs),
				fmt.Sprint(o.Result.Cycles), src)
		}
		fmt.Print(t.String())
	}

	cs := sweep.CacheStats{}
	if eng.Cache != nil {
		cs = eng.Cache.Stats()
		if err := eng.Cache.Close(); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("%d points: %d simulated, %d cached, %d errors",
		res.Stats.Points, res.Stats.Simulated, res.Stats.CacheHits, res.Stats.Errors)
	if *statsPath != "" {
		blob, _ := json.MarshalIndent(struct {
			Run   sweep.RunStats   `json:"run"`
			Cache sweep.CacheStats `json:"cache"`
		}{res.Stats, cs}, "", "  ")
		if err := os.WriteFile(*statsPath, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if res.Stats.Errors > 0 {
		os.Exit(1)
	}
}

// cacheOps runs the maintenance verbs against an opened cache, in
// import → compact → export order so one invocation can seed, shrink,
// and re-dump a corpus in a single pass.
func cacheOps(c *sweep.Cache, exportPath, importPath string, overwrite, compact bool) error {
	if importPath != "" {
		in := os.Stdin
		if importPath != "-" {
			f, err := os.Open(importPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		added, skipped, err := c.Import(in, overwrite)
		if err != nil {
			return err
		}
		log.Printf("imported %d results (%d already present)", added, skipped)
	}
	if compact {
		cs, err := c.Compact(false)
		if err != nil {
			return err
		}
		st := c.Stats()
		log.Printf("compacted %d segments: %d results carried, %d bytes reclaimed",
			cs.Segments, cs.CopiedKey, cs.Reclaimed)
		if st.Store != nil {
			blob, _ := json.Marshal(st.Store)
			log.Printf("store: %s", blob)
		}
	}
	if exportPath != "" {
		out := os.Stdout
		if exportPath != "-" {
			f, err := os.Create(exportPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := c.Export(out); err != nil {
			return err
		}
		if out != os.Stdout {
			if err := out.Sync(); err != nil {
				return err
			}
		}
		log.Printf("exported %d results", c.Len())
	}
	return c.Close()
}
