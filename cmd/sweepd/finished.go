package main

import (
	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/sweep"
)

// finishedSweep is the form in which sweepd retains a finished sweep's
// results: one result pointer and one cached flag per point, aligned
// with Grid.Expand(), plus the per-point errors, which are rare. The
// results are the ones the shared cache already holds, so a retained
// job costs about 9 B per point. An Outcome's Point and Key are pure
// functions of the grid and are rebuilt on read rather than stored; a
// full outcome list would cost about 264 B per point, or 50 KB for
// each retained 192-point sweep.
type finishedSweep struct {
	results []*pipeline.Result
	cached  []bool
	errs    map[int]string
	stats   sweep.RunStats
	saveErr string
}

// gridOutcomeKeys expands the grid and keys its points as RunJob does:
// "" where Key fails.
func gridOutcomeKeys(g sweep.Grid) ([]sweep.Point, []string) {
	points := g.Expand()
	keys, _ := sweep.Keys(points)
	return points, keys
}

// compactResults returns the retained form of a sweep's results, or nil
// when the outcomes do not match the grid's expansion point for point
// and key for key. A job journaled by an older binary could differ; it
// keeps its full Results, so the document it serves never changes.
func compactResults(g sweep.Grid, res *sweep.Results) *finishedSweep {
	points, keys := gridOutcomeKeys(g)
	if len(points) != len(res.Outcomes) {
		return nil
	}
	f := &finishedSweep{
		results: make([]*pipeline.Result, len(points)),
		cached:  make([]bool, len(points)),
		stats:   res.Stats,
		saveErr: res.SaveErr,
	}
	for i, o := range res.Outcomes {
		if o == nil || o.Point != points[i] || o.Key != keys[i] {
			return nil
		}
		f.results[i], f.cached[i] = o.Result, o.Cached
		if o.Err != "" {
			if f.errs == nil {
				f.errs = make(map[int]string)
			}
			f.errs[i] = o.Err
		}
	}
	return f
}

// expand rebuilds the Results that compactResults was given. f is
// immutable, so callers run this outside the server's lock.
func (f *finishedSweep) expand(g sweep.Grid) *sweep.Results {
	points, keys := gridOutcomeKeys(g)
	res := &sweep.Results{
		Outcomes: make([]*sweep.Outcome, len(points)),
		Stats:    f.stats,
		SaveErr:  f.saveErr,
	}
	outs := make([]sweep.Outcome, len(points))
	for i, pt := range points {
		outs[i] = sweep.Outcome{Point: pt, Key: keys[i], Cached: f.cached[i],
			Err: f.errs[i], Result: f.results[i]}
		res.Outcomes[i] = &outs[i]
	}
	return res
}
