package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/trace"
	"earlyrelease/internal/workloads"
)

// Engine runs grids. The zero Engine is usable: GOMAXPROCS workers and
// a private in-memory cache. Give several sweeps (or several concurrent
// clients, as sweepd does) the same Cache to share results.
type Engine struct {
	// Parallel is the worker count (0 = GOMAXPROCS). Each worker
	// recycles one pipeline.Core across all its points, and the Engine
	// keeps the cores across runs: while idle it holds at most Parallel
	// of them, each at the geometry of its last point.
	Parallel int
	// Cache holds results across Run calls. Nil means each Run gets a
	// fresh in-memory cache.
	Cache *Cache
	// Batch caps a batch group: cache-miss points sharing a (workload,
	// scale) trace are grouped, and one worker runs a group's points
	// back to back on its core, in the core's GeometryOrder, through
	// the fast loop (pipeline.Core.RunFast; bit-identical to the scalar
	// path). 0 = auto (DefaultBatchWidth), 1 = disable batching, >1 =
	// group size cap. Checker points and singleton groups always take
	// the scalar path, Core.Run.
	Batch int

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

// DefaultBatchWidth is the batch group size Batch=0 resolves to.
const DefaultBatchWidth = 16

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
	// Batched counts simulated points that ran on the batch path,
	// spread over BatchGroups shared-trace groups.
	Batched     int `json:"batched,omitempty"`
	BatchGroups int `json:"batch_groups,omitempty"`
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

	// PointNS is per-point simulation wall time in nanoseconds,
	// aligned with Outcomes (0 = not simulated here: cache hit, key or
	// setup error), each point timed on its own. CachePutNS is the
	// total spent writing results into the cache (including the final
	// Save). Both are observability only —
	// excluded from JSON so serialized Results stay byte-identical to
	// pre-tracing builds.
	PointNS    []int64 `json:"-"`
	CachePutNS int64   `json:"-"`

	// byPoint is built once under indexOnce: concurrent readers (the
	// explorer probes results from several goroutines) must not race on
	// a lazily grown map.
	indexOnce sync.Once
	byPoint   map[Point]*Outcome
}

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

// RunPoints runs an explicit, already-expanded point list — the
// entry federated workers use to execute a leased shard. Semantics
// match Run exactly (same cache, pool, progress and error contracts);
// outcomes are returned in input order.
func (e *Engine) RunPoints(points []Point, onProgress func(Progress)) (*Results, error) {
	return e.RunPointsCtx(context.Background(), points, onProgress)
}

// RunPointsCtx is RunPoints under a cancellation context. A canceled
// ctx stops the pool between jobs: scalar points cancel at point
// granularity, batch groups (at most Batch points) at group
// granularity. Points never started get an Outcome carrying the
// context error, everything finished before the cancel keeps its real
// result (and stays in the cache), and the call returns the partial
// Results alongside ctx.Err() — a drained worker can account for what
// it completed without pretending the rest ran.
func (e *Engine) RunPointsCtx(ctx context.Context, points []Point, onProgress func(Progress)) (*Results, error) {
	cache := e.Cache
	if cache == nil {
		cache = NewCache()
	}

	res := &Results{Outcomes: make([]*Outcome, len(points))}
	res.Stats.Points = len(points)
	// Per-point wall times: each index is written by exactly one pool
	// worker, so no lock is needed; putNS is shared and atomic.
	res.PointNS = make([]int64, len(points))
	var putNS atomic.Int64

	var mu sync.Mutex
	done := 0
	finish := func(i int, o *Outcome) {
		mu.Lock()
		res.Outcomes[i] = o
		done++
		if o.Cached {
			res.Stats.CacheHits++
		}
		if o.Err != "" {
			res.Stats.Errors++
		} else if !o.Cached {
			res.Stats.Simulated++
		}
		if onProgress != nil {
			onProgress(Progress{Total: len(points), Done: done,
				CacheHits: res.Stats.CacheHits, Errors: res.Stats.Errors,
				Last: o.Point.String()})
		}
		mu.Unlock()
	}

	// Resolve keys and serve cache hits synchronously; queue the rest.
	var misses []miss
	for i, pt := range points {
		key, err := pt.Key()
		if err != nil {
			finish(i, &Outcome{Point: pt, Err: err.Error()})
			continue
		}
		if r, ok := cache.Get(key); ok {
			finish(i, &Outcome{Point: pt, Key: key, Cached: true, Result: r})
			continue
		}
		misses = append(misses, miss{i, pt, key})
	}

	// complete records one simulated (or failed) point: its time, its
	// outcome and, on success, its cache entry.
	complete := func(m miss, r *pipeline.Result, err error, sim time.Duration) {
		res.PointNS[m.i] = int64(sim)
		o := &Outcome{Point: m.pt, Key: m.key, Result: r}
		if err != nil {
			o.Err = err.Error()
		} else {
			putStart := time.Now()
			cache.Put(m.key, r)
			putNS.Add(int64(time.Since(putStart)))
		}
		finish(m.i, o)
	}

	jobs := groupJobs(misses, e.batchWidth())
	onBatched := func(points int) {
		mu.Lock()
		res.Stats.Batched += points
		res.Stats.BatchGroups++
		mu.Unlock()
	}

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
				if err := ctx.Err(); err != nil {
					for _, m := range j {
						complete(m, nil, err, 0)
					}
					continue
				}
				if len(j) == 1 {
					simStart := time.Now()
					r, err := runPoint(core, j[0].pt)
					complete(j[0], r, err, time.Since(simStart))
					continue
				}
				runBatchJob(core, j, complete, onBatched)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()

	saveStart := time.Now()
	if err := cache.Save(); err != nil {
		res.SaveErr = err.Error()
	}
	res.CachePutNS = putNS.Add(int64(time.Since(saveStart)))
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// miss is one cache-missing point awaiting simulation.
type miss struct {
	i   int
	pt  Point
	key string
}

// batchWidth resolves the Batch knob (0 = auto).
func (e *Engine) batchWidth() int {
	switch {
	case e.Batch == 0:
		return DefaultBatchWidth
	case e.Batch < 1:
		return 1
	}
	return e.Batch
}

// groupJobs turns the miss list into worker jobs: runs of points that
// share a (workload, scale) trace become batch jobs of at most width
// points, everything else (checker points, singleton groups, width 1)
// stays a scalar job of one point. Job order follows each group's first
// appearance, so scheduling is deterministic.
func groupJobs(misses []miss, width int) [][]miss {
	var jobs [][]miss
	if width <= 1 {
		for _, m := range misses {
			jobs = append(jobs, []miss{m})
		}
		return jobs
	}
	type groupKey struct {
		workload string
		scale    int
	}
	groups := make(map[groupKey][]miss)
	var order []groupKey
	for _, m := range misses {
		if m.pt.Check {
			// The checker's extra verification stays on the reference
			// path: it is the judge, batching is the defendant.
			jobs = append(jobs, []miss{m})
			continue
		}
		k := groupKey{m.pt.Workload, m.pt.Scale}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], m)
	}
	for _, k := range order {
		g := groups[k]
		for len(g) > 0 {
			n := width
			if n > len(g) {
				n = len(g)
			}
			jobs = append(jobs, g[:n])
			g = g[n:]
		}
	}
	return jobs
}

// runBatchJob simulates one shared-trace group on core, one point after
// another in geometry order, each through the fast loop. A per-point
// setup failure (bad config) lands on its own outcome; a trace failure
// on every point of the group.
func runBatchJob(core *pipeline.Core, j []miss,
	complete func(miss, *pipeline.Result, error, time.Duration), onBatched func(int)) {
	w, err := workloads.ByName(j[0].pt.Workload)
	var tr *trace.Trace
	if err == nil {
		tr, err = w.Trace(j[0].pt.Scale)
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
	if len(ok) == 0 {
		return
	}
	onBatched(len(ok))
	for _, i := range core.GeometryOrder(cfgs) {
		simStart := time.Now()
		err := core.Reset(cfgs[i], tr)
		var r *pipeline.Result
		if err == nil {
			r, err = core.RunFast()
		}
		if err != nil {
			// Same shape the scalar path gives a run error.
			err = fmt.Errorf("%s: %w", ok[i].pt, err)
		}
		complete(ok[i], r, err, time.Since(simStart))
	}
}

// runPoint performs the full job: trace (memoized per workload/scale),
// config, core reset, and the reference run. A point that fails leaves
// the core reusable (Reset fully reinitializes it).
func runPoint(core *pipeline.Core, pt Point) (*pipeline.Result, error) {
	w, err := workloads.ByName(pt.Workload)
	if err != nil {
		return nil, err
	}
	tr, err := w.Trace(pt.Scale)
	if err != nil {
		return nil, err
	}
	cfg, err := pt.Config()
	if err != nil {
		return nil, err
	}
	if err := core.Reset(cfg, tr); err != nil {
		return nil, err
	}
	res, err := core.Run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pt, err)
	}
	return res, nil
}
