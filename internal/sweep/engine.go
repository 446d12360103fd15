package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/trace"
	"earlyrelease/internal/workloads"
)

// Engine runs grids. The zero Engine is usable: GOMAXPROCS workers and
// a private in-memory cache. Give several sweeps (or several concurrent
// clients) the same Cache to share results. Run, RunPoints and
// RunPointsCtx key each point and serve it from the cache when they
// can; RunLease is the federated worker's entry, and runs a leased
// shard under the coordinator's keys with no cache at all. All of them
// share one worker pool.
type Engine struct {
	// Parallel is the worker count (0 = GOMAXPROCS). Each worker
	// recycles one pipeline.Core across all its points, and the Engine
	// keeps the cores across runs: while idle it holds at most Parallel
	// of them, each at the geometry of its last point.
	Parallel int
	// Cache holds results across Run calls. Nil means each Run gets a
	// fresh in-memory cache.
	Cache *Cache

	// idle holds pool workers' cores between runs, so the next run
	// reuses their caches and predictors instead of allocating them
	// again. It keeps at most the resolved Parallel cores, each
	// detached from its trace.
	idleMu sync.Mutex
	idle   []*pipeline.Core
}

// takeCore returns an idle worker core, or a fresh empty one.
func (e *Engine) takeCore() *pipeline.Core {
	e.idleMu.Lock()
	defer e.idleMu.Unlock()
	n := len(e.idle)
	if n == 0 {
		return &pipeline.Core{}
	}
	core := e.idle[n-1]
	e.idle[n-1] = nil
	e.idle = e.idle[:n-1]
	return core
}

// putCore detaches core from its trace and keeps it for the next run,
// unless limit cores are already kept.
func (e *Engine) putCore(core *pipeline.Core, limit int) {
	core.Detach()
	e.idleMu.Lock()
	defer e.idleMu.Unlock()
	if len(e.idle) < limit {
		e.idle = append(e.idle, core)
	}
}

// Outcome is one point's final state after a sweep.
type Outcome struct {
	Point  Point            `json:"point"`
	Key    string           `json:"key"`
	Cached bool             `json:"cached,omitempty"` // served from the cache
	Err    string           `json:"err,omitempty"`
	Result *pipeline.Result `json:"result,omitempty"`
}

// RunStats summarizes one sweep.
type RunStats struct {
	Points    int `json:"points"`     // deduplicated grid size
	Simulated int `json:"simulated"`  // points actually run
	CacheHits int `json:"cache_hits"` // points served from the cache
	Errors    int `json:"errors"`
}

// Progress is a snapshot of a running sweep, delivered to the progress
// callback after every finished point.
type Progress struct {
	Total     int    `json:"total"`
	Done      int    `json:"done"`
	CacheHits int    `json:"cache_hits"`
	Errors    int    `json:"errors"`
	Last      string `json:"last,omitempty"` // the point that just finished
}

// Results collects a sweep's outcomes in grid-expansion order.
type Results struct {
	Outcomes []*Outcome `json:"outcomes"`
	Stats    RunStats   `json:"stats"`
	// SaveErr records a cache-persistence failure. The outcomes are
	// still complete and valid — a sweep's work is never discarded
	// because its cache store could not be synced.
	SaveErr string `json:"save_err,omitempty"`

	// byPoint is built once under indexOnce: concurrent readers (the
	// explorer probes results from several goroutines) must not race on
	// a lazily grown map.
	indexOnce sync.Once
	byPoint   map[Point]*Outcome
}

// newResults returns the empty Results of an n-point run.
func newResults(n int) *Results {
	return &Results{Outcomes: make([]*Outcome, n), Stats: RunStats{Points: n}}
}

// record stores point i's outcome, tallies it into Stats and returns
// the progress after it. No outcome is both cached and failed, so Done
// is the sum of the three tallies. Callers serialize calls.
func (r *Results) record(i int, o *Outcome) Progress {
	r.Outcomes[i] = o
	st := &r.Stats
	switch {
	case o.Cached:
		st.CacheHits++
	case o.Err != "":
		st.Errors++
	default:
		st.Simulated++
	}
	return Progress{Total: st.Points, Done: st.done(), CacheHits: st.CacheHits,
		Errors: st.Errors, Last: o.Point.String()}
}

// done counts the outcomes recorded so far.
func (s *RunStats) done() int { return s.CacheHits + s.Errors + s.Simulated }

// Find returns the outcome for a point, or nil. Safe for concurrent
// callers.
func (r *Results) Find(p Point) *Outcome {
	r.indexOnce.Do(func() {
		idx := make(map[Point]*Outcome, len(r.Outcomes))
		for _, o := range r.Outcomes {
			if o != nil {
				idx[o.Point] = o
			}
		}
		r.byPoint = idx
	})
	return r.byPoint[p]
}

// Result returns the point's simulation result, or nil if the point was
// not in the sweep or failed.
func (r *Results) Result(p Point) *pipeline.Result {
	if o := r.Find(p); o != nil {
		return o.Result
	}
	return nil
}

// Err returns the first per-point error, if any point failed.
func (r *Results) Err() error {
	for _, o := range r.Outcomes {
		if o.Err != "" {
			return fmt.Errorf("sweep: %s: %s", o.Point, o.Err)
		}
	}
	return nil
}

// Run expands the grid and simulates every point not already in the
// cache, sharding the misses across the worker pool. Per-point failures
// (unknown workload, config errors, simulation faults) are recorded on
// the outcome and never stored in the cache; a cache-persistence
// failure is recorded in Results.SaveErr, not returned — finished
// simulations are never discarded. onProgress, if non-nil, is
// called after every finished point, serialized under the engine's
// lock with strictly increasing Done counts; it must not call back
// into the engine.
func (e *Engine) Run(g Grid, onProgress func(Progress)) (*Results, error) {
	return e.RunPoints(g.Expand(), onProgress)
}

// RunPoints runs an explicit, already-expanded point list. Semantics
// match Run exactly (same cache, pool, progress and error contracts);
// outcomes are returned in input order.
func (e *Engine) RunPoints(points []Point, onProgress func(Progress)) (*Results, error) {
	return e.RunPointsCtx(context.Background(), points, onProgress)
}

// RunPointsCtx is RunPoints under a cancellation context. A canceled
// ctx stops the pool between points: a point already running finishes,
// and every point not yet started gets an Outcome carrying the context
// error. Everything finished before the cancel keeps its real result
// (and stays in the cache), and the call returns the partial Results
// alongside ctx.Err().
func (e *Engine) RunPointsCtx(ctx context.Context, points []Point, onProgress func(Progress)) (*Results, error) {
	cache := e.Cache
	if cache == nil {
		cache = NewCache()
	}

	res := newResults(len(points))
	var mu sync.Mutex
	finish := func(i int, o *Outcome) {
		mu.Lock()
		defer mu.Unlock()
		p := res.record(i, o)
		if onProgress != nil {
			onProgress(p)
		}
	}

	// Resolve keys and serve cache hits synchronously; queue the rest.
	var misses []miss
	keys, errs := Keys(points)
	for i, pt := range points {
		key := keys[i]
		if err := errs[i]; err != nil {
			finish(i, &Outcome{Point: pt, Err: err.Error()})
			continue
		}
		if r, ok := cache.Get(key); ok {
			finish(i, &Outcome{Point: pt, Key: key, Cached: true, Result: r})
			continue
		}
		misses = append(misses, miss{i, pt, key})
	}

	e.runMisses(ctx, misses, func(m miss, r *pipeline.Result, err error, _ time.Duration) {
		o := &Outcome{Point: m.pt, Key: m.key, Result: r}
		if err != nil {
			o.Err = err.Error()
		} else {
			cache.Put(m.key, r)
		}
		finish(m.i, o)
	})

	if err := cache.Save(); err != nil {
		res.SaveErr = err.Error()
	}
	return res, ctx.Err()
}

// RunLease runs a leased shard on the pool under the keys the
// coordinator planned: no keying, no cache and no Results, because the
// coordinator owns all three. It returns one WireOutcome per grant item,
// in item order, and each point's simulation wall time in nanoseconds
// (0 when it failed before it ran: a bad config, an unknown workload or
// a cancel). A canceled ctx returns ctx.Err(), and then the unstarted
// points' outcomes carry that error, which no coordinator may believe.
func (e *Engine) RunLease(ctx context.Context, grant *LeaseGrant) ([]WireOutcome, []int64, error) {
	outs := make([]WireOutcome, len(grant.Items))
	pointNS := make([]int64, len(grant.Items))
	misses := make([]miss, len(grant.Items))
	for i, it := range grant.Items {
		misses[i] = miss{i, it.Point, it.Key}
	}
	// Each index is written by exactly one pool worker, and runMisses
	// returns only after every worker has finished.
	e.runMisses(ctx, misses, func(m miss, r *pipeline.Result, err error, sim time.Duration) {
		o := WireOutcome{Key: m.key}
		if err != nil {
			o.Err = err.Error()
		} else {
			o.Result = r
		}
		outs[m.i], pointNS[m.i] = o, int64(sim)
	})
	return outs, pointNS, ctx.Err()
}

// runMisses runs the misses on the pool: grouped into jobs, one pool
// worker per job at a time, at most Parallel workers, each on a
// recycled core. complete is called once per miss, from the pool
// goroutines, and runMisses returns after the last call.
func (e *Engine) runMisses(ctx context.Context, misses []miss,
	complete func(miss, *pipeline.Result, error, time.Duration)) {
	jobs := groupJobs(misses)
	parallel := e.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	nw := min(parallel, len(jobs))
	ch := make(chan []miss)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			core := e.takeCore()
			defer e.putCore(core, parallel)
			for j := range ch {
				runJob(ctx, core, j, complete)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// miss is one point awaiting simulation: its index in the caller's
// list, the point and its content key.
type miss struct {
	i   int
	pt  Point
	key string
}

// groupCap is the most points one job holds. Cutting a large trace
// group lets several pool workers share it.
const groupCap = 16

// groupJobs turns the miss list into worker jobs: misses that share a
// (workload, scale, Check) key, in first-appearance order, cut into
// runs of at most groupCap points. Job order follows each key's first
// appearance, so scheduling is deterministic.
func groupJobs(misses []miss) [][]miss {
	type groupKey struct {
		workload string
		scale    int
		check    bool
	}
	groups := make(map[groupKey][]miss)
	var order []groupKey
	for _, m := range misses {
		k := groupKey{m.pt.Workload, m.pt.Scale, m.pt.Check}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], m)
	}
	var jobs [][]miss
	for _, k := range order {
		g := groups[k]
		for len(g) > 0 {
			n := min(groupCap, len(g))
			jobs = append(jobs, g[:n])
			g = g[n:]
		}
	}
	return jobs
}

// runJob simulates one job's points on core, one after another in the
// core's geometry order, on their shared trace. Checker jobs run the
// reference loop, Core.Run: the checker is the judge, the fast loop the
// defendant. Every other job runs Core.RunFast, which is bit-identical.
// A canceled ctx fails every point not yet started; a per-point setup
// failure (bad config) lands on its own outcome, and a trace failure on
// every point of the job.
func runJob(ctx context.Context, core *pipeline.Core, j []miss,
	complete func(miss, *pipeline.Result, error, time.Duration)) {
	err := ctx.Err()
	var tr *trace.Trace
	if err == nil {
		var w workloads.Workload
		if w, err = workloads.ByName(j[0].pt.Workload); err == nil {
			tr, err = w.Trace(j[0].pt.Scale)
		}
	}
	if err != nil {
		for _, m := range j {
			complete(m, nil, err, 0)
		}
		return
	}

	cfgs := make([]pipeline.Config, 0, len(j))
	ok := make([]miss, 0, len(j))
	for _, m := range j {
		cfg, err := m.pt.Config()
		if err != nil {
			complete(m, nil, err, 0)
			continue
		}
		cfgs = append(cfgs, cfg)
		ok = append(ok, m)
	}
	run := core.RunFast
	if j[0].pt.Check {
		run = core.Run
	}
	for _, i := range core.GeometryOrder(cfgs) {
		if err := ctx.Err(); err != nil {
			complete(ok[i], nil, err, 0)
			continue
		}
		simStart := time.Now()
		err := core.Reset(cfgs[i], tr)
		var r *pipeline.Result
		if err == nil {
			r, err = run()
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", ok[i].pt, err)
		}
		complete(ok[i], r, err, time.Since(simStart))
	}
}
