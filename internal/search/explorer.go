package search

import (
	"context"
	"fmt"
	"math/rand"

	"earlyrelease/internal/stats"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/workloads"
)

// Evaluator runs batches of simulation points. Both *sweep.Engine
// (local, cached) and *sweep.Coordinator (federated — sweepd's /explore
// evaluates through it, so candidate batches shard across workers)
// satisfy it as-is; results are byte-identical either way.
type Evaluator interface {
	RunPoints(points []sweep.Point, onProgress func(sweep.Progress)) (*sweep.Results, error)
}

// Spec declares one exploration job — the wire format of POST /explore
// and the cmd/explore flags. The zero value of every field takes a
// default; Normalize resolves them all, so a normalized spec is
// self-contained and two runs of the same normalized spec produce
// byte-identical frontiers.
type Spec struct {
	// Strategy is one of StrategyNames (default "hillclimb").
	Strategy string `json:"strategy,omitempty"`
	// Budget is the total number of candidate evaluations, screening
	// included (default 64).
	Budget int `json:"budget,omitempty"`
	// Seed drives every random choice. Same (seed, budget, space) ⇒
	// byte-identical frontier.
	Seed int64 `json:"seed"`
	// Scale is the full-fidelity dynamic-instruction budget per
	// workload (default sweep.DefaultScale).
	Scale int `json:"scale,omitempty"`
	// ScreenScale is the successive-halving screening scale (default
	// Scale/8, at least 2000, at most Scale).
	ScreenScale int `json:"screen_scale,omitempty"`
	// Batch bounds random seeding batches (default 8).
	Batch int `json:"batch,omitempty"`
	// Workloads to aggregate the IPC objective over (default: the
	// paper suite). Duplicates are dropped on Normalize.
	Workloads []string `json:"workloads,omitempty"`
	// Check runs every evaluation with the release-safety invariant
	// checker (slower; part of the cache key like any config bit).
	Check bool `json:"check,omitempty"`
	// Space is the design space (default: DefaultSpace — all policies,
	// the Figure 11 sizes, every machine axis).
	Space *Space `json:"space,omitempty"`
}

// Normalize resolves every default in place and validates the spec.
func (s *Spec) Normalize() error {
	if s.Strategy == "" {
		s.Strategy = "hillclimb"
	}
	if s.Budget <= 0 {
		s.Budget = 64
	}
	if s.Scale <= 0 {
		s.Scale = sweep.DefaultScale
	}
	if s.ScreenScale <= 0 {
		s.ScreenScale = s.Scale / 8
	}
	if s.ScreenScale < 2000 {
		s.ScreenScale = 2000
	}
	if s.ScreenScale > s.Scale {
		s.ScreenScale = s.Scale
	}
	if s.Batch <= 0 {
		s.Batch = 8
	}
	if len(s.Workloads) == 0 {
		for _, w := range workloads.Paper() {
			s.Workloads = append(s.Workloads, w.Name)
		}
	}
	// Deduplicate like every space dimension: a repeated workload
	// would double-weight the hmean objective, and its duplicate
	// points would make the run accounting (part of the frontier
	// JSON) depend on cache timing under federation.
	seen := map[string]bool{}
	ws := make([]string, 0, len(s.Workloads))
	for _, w := range s.Workloads {
		if _, err := workloads.ByName(w); err != nil {
			return fmt.Errorf("search: %w", err)
		}
		if !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	s.Workloads = ws
	if s.Space == nil {
		s.Space = DefaultSpace()
	}
	if err := s.Space.Normalize(); err != nil {
		return err
	}
	if _, err := newStrategy(*s); err != nil {
		return err
	}
	return nil
}

// Progress is a snapshot of a running exploration, delivered after
// every finished simulation point and at every round boundary.
type Progress struct {
	Round             int    `json:"round"`
	Evaluations       int    `json:"evaluations"` // full-scale candidates done
	ScreenEvaluations int    `json:"screen_evaluations"`
	Budget            int    `json:"budget"`
	Frontier          int    `json:"frontier"` // current frontier size
	Points            int    `json:"points"`   // simulation points issued
	Simulated         int    `json:"simulated"`
	CacheHits         int    `json:"cache_hits"`
	Errors            int    `json:"errors"`
	Last              string `json:"last,omitempty"` // last point or candidate finished
}

// Frontier is an exploration's result: the resolved spec, the work
// accounting, and the discovered Pareto frontier in canonical order
// (energy ascending). Marshaling it with encoding/json is byte-stable:
// struct fields are emitted in order and candidate maps sort their
// keys, so equal explorations compare equal as bytes.
type Frontier struct {
	Spec              Spec           `json:"spec"`
	SpaceSize         int64          `json:"space_size"`
	Rounds            int            `json:"rounds"`
	Evaluations       int            `json:"evaluations"`
	ScreenEvaluations int            `json:"screen_evaluations"`
	CandidateErrors   int            `json:"candidate_errors,omitempty"`
	Points            sweep.RunStats `json:"points"`
	NonDominated      bool           `json:"non_dominated"`
	Frontier          []*Eval        `json:"frontier"`
}

// Explorer runs exploration jobs against an evaluator.
type Explorer struct {
	// Eval executes candidate point batches (nil = a private
	// sweep.Engine with an in-memory cache).
	Eval Evaluator
}

// RunRemote submits the spec to a sweepd coordinator's /explore route
// and waits for its frontier — the remote counterpart of Explorer.Run.
// The job runs inside the coordinator, where candidate evaluations
// federate across its workers; the frontier decodes from the same JSON
// the server marshals, so a remote run of a spec is byte-identical to a
// local one. Cancelling ctx abandons the wait, not the job.
func RunRemote(ctx context.Context, c *sweep.Client, spec Spec, onProgress func(Progress)) (*Frontier, error) {
	return sweep.RunJob[Progress, Frontier](ctx, c, "/explore", spec, onProgress)
}

type memoKey struct {
	key   string
	scale int
}

// Run executes the spec to completion and returns its frontier. The
// only error paths are a bad spec and evaluator (infrastructure)
// failure; per-candidate simulation errors are recorded and excluded
// from the archive instead.
func (e *Explorer) Run(spec Spec, onProgress func(Progress)) (*Frontier, error) {
	// Normalize a deep copy: Normalize rewrites value lists in place
	// (s.Axes[i].Values = ...), and writing through a shared backing
	// array would mutate the caller's spec — in sweepd, racing the
	// job-snapshot marshaler on another goroutine.
	norm := spec
	if spec.Space != nil {
		cp := *spec.Space
		cp.Policies = append([]string(nil), spec.Space.Policies...)
		cp.IntRegs = append([]int(nil), spec.Space.IntRegs...)
		cp.FPRegs = append([]int(nil), spec.Space.FPRegs...)
		cp.Axes = make([]AxisRange, len(spec.Space.Axes))
		for i, ax := range spec.Space.Axes {
			cp.Axes[i] = AxisRange{Name: ax.Name, Values: append([]int(nil), ax.Values...)}
		}
		norm.Space = &cp
	}
	if err := norm.Normalize(); err != nil {
		return nil, err
	}
	ev := e.Eval
	if ev == nil {
		ev = &sweep.Engine{}
	}
	strat, err := newStrategy(norm)
	if err != nil {
		return nil, err
	}

	arch := NewArchive()
	memo := map[memoKey]*Eval{}
	out := &Frontier{Spec: norm, SpaceSize: norm.Space.Size(), NonDominated: true}
	ctx := &stratCtx{
		space: norm.Space,
		rng:   rand.New(rand.NewSource(norm.Seed)),
		arch:  arch,
		lookup: func(g genome, scale int) *Eval {
			return memo[memoKey{g.key(), scale}]
		},
		fullScale:   norm.Scale,
		screenScale: norm.ScreenScale,
		batch:       norm.Batch,
	}
	frontierLen := 0 // refreshed at round boundaries (Frontier() is O(n²))
	report := func(last string) {
		if onProgress == nil {
			return
		}
		onProgress(Progress{
			Round:             out.Rounds,
			Evaluations:       out.Evaluations,
			ScreenEvaluations: out.ScreenEvaluations,
			Budget:            norm.Budget,
			Frontier:          frontierLen,
			Points:            out.Points.Points,
			Simulated:         out.Points.Simulated,
			CacheHits:         out.Points.CacheHits,
			Errors:            out.Points.Errors,
			Last:              last,
		})
	}

	for {
		remaining := norm.Budget - out.Evaluations - out.ScreenEvaluations
		if remaining <= 0 {
			break
		}
		ctx.remaining = remaining
		props := strat.propose(ctx)
		if len(props) == 0 {
			break // strategy exhausted (space covered or ladder done)
		}
		// Drop duplicates and already-evaluated proposals, then trim
		// to the budget (deterministic prefix).
		fresh := props[:0]
		seen := map[memoKey]bool{}
		for _, p := range props {
			mk := memoKey{p.g.key(), p.scale}
			if seen[mk] || memo[mk] != nil {
				continue
			}
			seen[mk] = true
			fresh = append(fresh, p)
		}
		if len(fresh) == 0 {
			break // nothing new to learn from this strategy
		}
		if len(fresh) > remaining {
			fresh = fresh[:remaining]
		}
		out.Rounds++

		// One engine call per round: the evaluator shards and caches.
		var pts []sweep.Point
		for _, p := range fresh {
			pts = append(pts, norm.Space.Points(norm.Space.decode(p.g), norm.Workloads, p.scale, norm.Check)...)
		}
		base := out.Points
		res, err := ev.RunPoints(pts, func(sp sweep.Progress) {
			out.Points.Points = base.Points + sp.Total
			out.Points.Simulated = base.Simulated + sp.Done - sp.CacheHits - sp.Errors
			out.Points.CacheHits = base.CacheHits + sp.CacheHits
			out.Points.Errors = base.Errors + sp.Errors
			report(sp.Named().Last)
		})
		if err != nil {
			return nil, fmt.Errorf("search: evaluate round %d: %w", out.Rounds, err)
		}
		out.Points.Points = base.Points + res.Stats.Points
		out.Points.Simulated = base.Simulated + res.Stats.Simulated
		out.Points.CacheHits = base.CacheHits + res.Stats.CacheHits
		out.Points.Errors = base.Errors + res.Stats.Errors

		nw := len(norm.Workloads)
		for i, p := range fresh {
			el := buildEval(norm.Space, p, res.Outcomes[i*nw:(i+1)*nw])
			memo[memoKey{p.g.key(), p.scale}] = el
			if p.scale == norm.Scale {
				out.Evaluations++
				if el.Err == "" {
					arch.Add(el)
				} else {
					out.CandidateErrors++
				}
			} else {
				out.ScreenEvaluations++
				if el.Err != "" {
					out.CandidateErrors++
				}
			}
			report(el.Candidate.String())
		}
		frontierLen = len(arch.Frontier())
		report("")
	}

	fr := arch.Frontier()
	if fr == nil {
		fr = []*Eval{} // marshal as [], not null
	}
	out.Frontier = fr
	out.NonDominated = verifyNonDominated(fr)
	frontierLen = len(fr)
	report("")
	return out, nil
}

// buildEval aggregates one candidate's per-workload outcomes into its
// objective vector: harmonic-mean IPC, mean early-release rate, and
// the geometry-only power figures from the shared derived-metrics
// helper. Any failed point fails the whole candidate.
func buildEval(space *Space, p proposal, outs []*sweep.Outcome) *Eval {
	e := &Eval{Candidate: space.decode(p.g), Scale: p.scale, g: p.g.clone()}
	var ipcs []float64
	var early float64
	for _, o := range outs {
		if o.Err != "" {
			e.Err = fmt.Sprintf("%s: %s", o.Point, o.Err)
			return e
		}
		d := sweep.Derive(o.Point, o.Result)
		ipcs = append(ipcs, d.IPC)
		early += d.EarlyPerKilo
		e.Objectives.EnergyPJ = d.EnergyPJ
		e.Objectives.AccessNs = d.AccessNs
	}
	e.Objectives.IPC = stats.HarmonicMean(ipcs)
	if len(outs) > 0 {
		e.Objectives.EarlyPerKilo = early / float64(len(outs))
	}
	return e
}

// verifyNonDominated re-checks the frontier invariant pairwise — the
// CI smoke asserts the published flag rather than trusting the
// archive's construction.
func verifyNonDominated(fr []*Eval) bool {
	for _, a := range fr {
		for _, b := range fr {
			if a != b && a.Objectives.Dominates(b.Objectives) {
				return false
			}
		}
	}
	return true
}
