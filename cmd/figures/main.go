// Command figures regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index):
//
//	-fig3    register-state breakdown under conventional renaming
//	-sec33   basic-mechanism speedups at 64/48/40 registers
//	-fig9    register-file access time & energy model curves
//	-sec44   energy balance and storage cost
//	-fig10   per-benchmark IPC at 48+48 registers, three policies
//	-fig11   harmonic-mean IPC vs register file size (+ -table4)
//	-table1  the commercial register-file survey (static data)
//	-all     everything above
//
// Beyond the paper, -sensitivity AXES sweeps machine-model axes (ROS
// size, widths, LSQ, predictor and cache geometry — "all" or a comma
// list, see `sweep -axes`) one at a time around the Table 2 baseline
// and plots per-axis IPC and early-release-rate curves. It is not part
// of -all: its grid is several times the size of the whole paper.
//
// -frontier re-derives the §4.4 energy balance as a searched Pareto
// frontier (cmd/explore's engine): one hill-climb per policy over the
// int×fp sizing space, then the equal-IPC energy pairing between the
// conventional and extended frontiers. Tune with -frontier-budget and
// -frontier-seed; also not part of -all.
//
// Use -scale to trade fidelity for time and -quick for a fast smoke run.
// With -cache DIR, results persist across runs: a repeated invocation
// only simulates points whose configuration changed. -stats-json FILE
// records the run's cache statistics (the CI tier-2 smoke asserts a
// warm rerun is 100% hits). With -remote URL every driver grid runs
// federated on a sweepd coordinator instead, over its shared cache.
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

	"earlyrelease/internal/experiments"
	"earlyrelease/internal/stats"
	"earlyrelease/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		all     = flag.Bool("all", false, "regenerate everything")
		fig3    = flag.Bool("fig3", false, "Figure 3")
		sec33   = flag.Bool("sec33", false, "Section 3.3 speedups")
		fig9    = flag.Bool("fig9", false, "Figure 9")
		sec44   = flag.Bool("sec44", false, "Section 4.4 energy balance")
		fig10   = flag.Bool("fig10", false, "Figure 10")
		fig11   = flag.Bool("fig11", false, "Figure 11")
		table1  = flag.Bool("table1", false, "Table 1")
		table4  = flag.Bool("table4", false, "Table 4 (implies -fig11)")
		sens    = flag.String("sensitivity", "", "machine-model sensitivity axes: \"all\" or comma list (ros,issue,lsq,...)")
		sensWs  = flag.String("sens-workloads", "", "workloads for -sensitivity (empty = paper suite)")
		front   = flag.Bool("frontier", false, "searched §4.4 energy balance (Pareto frontier per policy)")
		frontB  = flag.Int("frontier-budget", 60, "candidate evaluations per policy for -frontier")
		frontS  = flag.Int64("frontier-seed", 1, "search seed for -frontier")
		frontWs = flag.String("frontier-workloads", "", "workloads for -frontier (empty = paper suite)")
		scale   = flag.Int("scale", 300_000, "dynamic instructions per workload")
		quick   = flag.Bool("quick", false, "smaller scale and size axis")
		check   = flag.Bool("check", false, "enable invariant checking")
		cache   = flag.String("cache", "", "persistent sweep-result cache — a store directory, created if absent (repeated runs only simulate new points)")
		remote  = flag.String("remote", "", "sweepd coordinator URL: farm every driver grid out for federated execution")
		statsJ  = flag.String("stats-json", "", "write cache statistics to this file")
	)
	flag.Parse()

	opt := experiments.DefaultOptions()
	opt.Scale = *scale
	opt.Check = *check
	opt.Remote = *remote

	// Ctrl-C abandons a federated wait cleanly; local runs finish the
	// point in flight as before.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opt.Context = ctx
	if *remote != "" && *cache != "" {
		log.Fatal("-remote farms grids out to the coordinator (which owns the cache); " +
			"it cannot be combined with -cache")
	}
	if *cache != "" {
		c, err := sweep.OpenCache(*cache)
		if err != nil {
			log.Fatal(err)
		}
		opt.Cache = c
	}
	sizes := experiments.DefaultSizes
	if *quick {
		opt.Scale = 60_000
		sizes = []int{40, 48, 64, 80, 96, 128, 160}
	}
	if !(*all || *fig3 || *sec33 || *fig9 || *sec44 || *fig10 || *fig11 || *table1 || *table4 ||
		*sens != "" || *front) {
		*all = true
	}

	if *all || *table1 {
		fmt.Println(table1Text)
	}
	if *all || *fig3 {
		res, err := experiments.Fig3(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
	}
	if *all || *sec33 {
		res, err := experiments.Sec33(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
	}
	if *all || *fig9 {
		fmt.Println(experiments.Fig9(sizes))
	}
	if *all || *sec44 {
		fmt.Println(experiments.Sec44())
	}
	if *all || *fig10 {
		res, err := experiments.Fig10(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
	}
	if *all || *fig11 || *table4 {
		res, err := experiments.Fig11(opt, sizes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
		fmt.Println(experiments.Table4String(experiments.Table4(res)))
	}

	if *sens != "" {
		var ws []string
		if *sensWs != "" {
			for _, w := range strings.Split(*sensWs, ",") {
				ws = append(ws, strings.TrimSpace(w))
			}
		}
		res, err := experiments.Sensitivity(opt, strings.Split(*sens, ","), ws)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
	}

	if *front {
		var ws []string
		if *frontWs != "" {
			for _, w := range strings.Split(*frontWs, ",") {
				ws = append(ws, strings.TrimSpace(w))
			}
		}
		res, err := experiments.Frontier(opt, *frontB, *frontS, ws)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
	}

	cs := experiments.CacheStats(opt)
	if opt.Cache != nil {
		if err := opt.Cache.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if cs.Hits+cs.Misses > 0 {
		log.Printf("sweep cache: %d entries, %d hits / %d lookups (%.1f%% hit rate)",
			cs.Entries, cs.Hits, cs.Hits+cs.Misses, 100*cs.HitRate)
	}
	if *statsJ != "" {
		blob, _ := json.MarshalIndent(cs, "", "  ")
		if err := os.WriteFile(*statsJ, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

var table1Text = func() string {
	t := stats.NewTable("processor", "int P", "int ports", "fp P", "fp ports", "N", "structure")
	t.AddRow("MIPS R10K", "64", "7R 3W", "64", "5R 3W", "32", "Active List")
	t.AddRow("MIPS R12K", "2x80", "2x(4R 6W)", "72", "6R 4W", "48", "Active List")
	t.AddRow("Alpha 21264", "80", "n.a.", "72", "n.a.", "80", "In-Flight Window")
	t.AddRow("Intel P4", "128", "n.a.", "128", "n.a.", "126", "Reorder Buffer")
	return "Table 1: out-of-order processors with merged register files (from the paper)\n" + t.String()
}()
