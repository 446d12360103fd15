// Package experiments contains one driver per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the index). Each driver
// declares its parameter grid and runs it on the sweep engine
// (internal/sweep), then formats the series the paper plots through
// package stats. Drivers share one process-wide result cache, so
// overlapping grids (e.g. Fig 10's 48-register points inside Fig 11's
// size axis) are simulated once per process — or once ever, when a
// persistent cache is configured.
package experiments

import (
	"context"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/release"
	"earlyrelease/internal/stats"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/workloads"
)

// Options controls experiment fidelity.
type Options struct {
	Scale    int  // dynamic instructions per workload
	Check    bool // run with the invariant checker (slower)
	Parallel int  // concurrent simulations (0 = GOMAXPROCS)

	// Cache overrides the process-wide shared result cache — e.g. a
	// persistent sweep.OpenCache directory so repeated figure runs are
	// incremental across processes. Nil uses the shared in-memory
	// cache.
	Cache *sweep.Cache

	// Remote is a sweepd coordinator base URL. When set, every driver
	// grid is submitted there for federated execution instead of
	// running in-process; results are byte-identical either way, so
	// figures and tables don't care where the cycles were spent.
	Remote string

	// Context cancels the wait on a federated run (Remote mode), grid
	// or frontier search — the CLIs thread a signal-bound context here
	// so Ctrl-C abandons the poll cleanly. Nil means
	// context.Background().
	Context context.Context
}

// DefaultOptions is a good compromise for regenerating all figures in a
// few minutes.
func DefaultOptions() Options {
	return Options{Scale: 300_000}
}

// QuickOptions is used by tests.
func QuickOptions() Options {
	return Options{Scale: 40_000}
}

// Policies under study, in the paper's plotting order.
var Policies = []release.Kind{release.Conventional, release.Basic, release.Extended}

// sharedCache keeps every driver's results for the life of the process.
var sharedCache = sweep.NewCache()

// CacheStats reports the effectiveness of the cache the options select,
// for operational logging (cmd/figures -cache, the CI bench smoke).
func CacheStats(opt Options) sweep.CacheStats {
	if opt.Cache != nil {
		return opt.Cache.Stats()
	}
	return sharedCache.Stats()
}

// context is the options' Context, or context.Background().
func (o Options) context() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

func (o Options) scale() int {
	if o.Scale <= 0 {
		return sweep.DefaultScale
	}
	return o.Scale
}

// grid assembles a driver's sweep: the named policies crossed with the
// p+p register sizes over the paper's workload suite, at the option's
// scale and checking level. The suite is pinned explicitly — the grid
// default is the whole corpus, which the paper's figures must not
// absorb as it grows.
func (o Options) grid(policies []release.Kind, sizes []int) sweep.Grid {
	g := sweep.Grid{IntRegs: sizes, Scale: o.scale(), Check: o.Check}
	for _, w := range workloads.Paper() {
		g.Workloads = append(g.Workloads, w.Name)
	}
	for _, k := range policies {
		g.Policies = append(g.Policies, k.String())
	}
	return g
}

// point names one simulation of a driver grid for result lookup.
func (o Options) point(w string, k release.Kind, p int) sweep.Point {
	return sweep.Point{Workload: w, Policy: k.String(), IntRegs: p, FPRegs: p,
		Scale: o.scale(), Check: o.Check}
}

// runGrid executes a driver's grid on the shared (or overridden)
// cache, or farms it out to a federated coordinator when the options
// name one.
func runGrid(g sweep.Grid, opt Options) (*sweep.Results, error) {
	var res *sweep.Results
	var err error
	if opt.Remote != "" {
		res, err = sweep.NewClient(opt.Remote).RunGrid(opt.context(), g, nil)
	} else {
		cache := opt.Cache
		if cache == nil {
			cache = sharedCache
		}
		eng := &sweep.Engine{Parallel: opt.Parallel, Cache: cache}
		res, err = eng.Run(g, nil)
	}
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Run simulates one workload under one configuration, uncached: the
// throughput benchmarks call this in a loop and must measure the
// simulator, not the cache.
func Run(w workloads.Workload, kind release.Kind, intRegs, fpRegs int, opt Options) (*pipeline.Result, error) {
	tr, err := w.Trace(opt.scale())
	if err != nil {
		return nil, err
	}
	pt := sweep.Point{Workload: w.Name, Policy: kind.String(),
		IntRegs: intRegs, FPRegs: fpRegs, Scale: opt.scale(), Check: opt.Check}
	cfg, err := pt.Config()
	if err != nil {
		return nil, err
	}
	core, err := pipeline.New(cfg, tr)
	if err != nil {
		return nil, err
	}
	return core.Run()
}

// hmeanIPC computes the harmonic-mean IPC over a workload class.
func hmeanIPC(res *sweep.Results, opt Options, ws []workloads.Workload, k release.Kind, p int) float64 {
	var ipcs []float64
	for _, w := range ws {
		r := res.Result(opt.point(w.Name, k, p))
		if r == nil {
			return 0
		}
		ipcs = append(ipcs, r.IPC)
	}
	return stats.HarmonicMean(ipcs)
}
