package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/search"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/workloads"
)

// plan fixes every size the workloads use. fullPlan is the benchmark;
// the smoke test runs tinyPlan through the same code.
type plan struct {
	// Instructions per trace, and the exploration's evaluation budget.
	coldScale, warmScale, churnScale, exploreScale, exploreBudget int

	warmRound, churnRound int // timed jobs per warm-grid and churn round
	setupLaunches         int // extra service launches per workload for setup_s
}

var fullPlan = plan{
	coldScale: 300_000, warmScale: 20_000, churnScale: 10_000, exploreScale: 100_000,
	exploreBudget: 96, warmRound: 500, churnRound: 48, setupLaunches: 100,
}

const (
	// hotConfigs is the size of churn's reused set: one per workload, so
	// that filling it builds every workload's trace before the loop. A
	// built trace holds far more memory than its length needs, and the
	// worker's garbage collector paces itself by that memory, so the
	// worker's peak RSS depends on which traces exist.
	hotConfigs = 16
	// hotSeed draws the hot set. It is fixed, so that every round of
	// every run fills the same configurations in the same order and
	// leaves the worker with the same memory; the run's seed draws the
	// fresh configurations.
	hotSeed    = 1
	churnCheck = 20 // fresh churn jobs re-run in process
	// exploreSeed is the exploration's own seed. It is fixed: the cost
	// of a halving run depends on its seed by up to a third, which would
	// otherwise be most of explore's spread from run to run.
	exploreSeed = 1
	// The replay's core sample: trace groups, and points per group.
	replayGroups, replayLanes = 3, 4
)

// pollEvery is the client's status poll interval. sweep.Client's 50 ms
// poll would quantize a warm job's latency to about 60 ms.
const pollEvery = 2 * time.Millisecond

// jobTimeout fails a job that has not finished, well inside the time a
// whole run may take.
const jobTimeout = 100 * time.Second

// workloadDef names one workload; why is copied into BENCHMARK.json.
type workloadDef struct {
	name, why string
	clients   int // closed-loop client goroutines, capped at nproc
	run       func(b *bench, t *tracer, p *pass, length time.Duration) error
}

var workloadDefs = []workloadDef{
	{"cold-grid", "192-point acceptance grid at 300k on fresh processes: batched simulation does the work, orchestration is the gap to in-process",
		1, (*bench).coldGrid},
	{"warm-grid", "the same grid at 20k resubmitted when fully cached: no simulation, so a core speed-up must not move it",
		2, (*bench).warmGrid},
	{"churn", "4-point grids over all 16 workloads, two thirds fresh: store and journal writes, lease polling and per-job costs dominate",
		2, (*bench).churn},
	{"explore", "halving exploration, budget 96 at 100k over 3 workloads: dependent rounds and traces at several scales",
		1, (*bench).explore},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadDefs {
		out = append(out, w.name)
	}
	return out
}

// acceptanceGrid is the 192-point federation acceptance grid: 3
// workloads × 2 policies × 2 register files × 4 two-valued axes.
func acceptanceGrid(scale int) sweep.Grid {
	return sweep.Grid{
		Workloads:   []string{"tomcatv", "go", "listwalk"},
		Policies:    []string{"conv", "extended"},
		IntRegs:     []int{40, 48},
		ROSSizes:    []int{64, 0},
		IssueWidths: []int{4, 0},
		LSQSizes:    []int{16, 0},
		BPredBits:   []int{10, 0},
		Scale:       scale,
	}
}

var exploreWorkloads = []string{"tomcatv", "go", "listwalk"}

// digests pins the SHA-256 of the canonical outcome JSON of the
// full-scale grids and of the default-seed exploration frontier. A key
// without an entry is checked against an in-process sweep.Engine run
// instead (grids) or for agreement across reps (explorations); the
// bench prints the digest it used, which is how these were made.
var digests = map[string]string{
	"grid@300000":                     "e6c9b04a457f5660fad39156640ee90a479dff7712333194485905d8327ad5fd",
	"grid@20000":                      "d3761717d127d7d2a1af0607a48f00d2e13a84a6de0b50388f7cf22b1842c7ec",
	"explore@100000/budget=96/seed=1": "4ae727b3f4643c6f2c277f6f687b0d41fe0c25fc214812865e0718f017189f0c",
}

// pass is one measured pass over a workload.
type pass struct {
	mu                  sync.Mutex
	lat                 []float64 // ms per completed job
	simMinst            []float64 // simulated M instructions per host second
	elapsed             time.Duration
	attempted, failed   int
	polls               int
	fetch               []float64 // ms of each job's final GET
	coordRSS, workerRSS []float64
	setup               []float64          // s per service launch
	diff                map[string]float64 // sweepd /metrics deltas (traced)
	clients             int
	in                  replayInput
}

// replayInput is what the in-process replay feeds through the layers.
type replayInput struct {
	outcomes []*sweep.Outcome // distinct points with their service results
	jobs     [][]sweep.Point  // each job's points, for the planner
	spec     *search.Spec
	export   []byte // the coordinator's cache export (explore)
	frontier []byte // canonical service frontier (explore)
}

func (p *pass) fail(format string, args ...any) {
	p.mu.Lock()
	p.failed++
	p.mu.Unlock()
	fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
}

func (p *pass) completed(j jobRun) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lat = append(p.lat, float64(j.latency)/1e6)
	p.polls += j.polls
	p.fetch = append(p.fetch, float64(j.fetch)/1e6)
}

// launch starts a service and records its set-up time.
func (b *bench) launch(p *pass) (*service, error) {
	s, err := b.startService()
	if err != nil {
		return nil, err
	}
	p.setup = append(p.setup, s.setup.Seconds())
	return s, nil
}

// finish records the service's peak RSS and stops it.
func (b *bench) finish(p *pass, s *service) error {
	defer b.stopService(s)
	coord, worker, err := s.rss()
	if err != nil {
		return err
	}
	p.coordRSS = append(p.coordRSS, coord)
	p.workerRSS = append(p.workerRSS, worker)
	fmt.Fprintf(os.Stderr, "bench: peak RSS: worker %.1f MB, coordinator %.1f MB\n", worker, coord)
	return nil
}

// measureSetup launches and stops the service n times for setup_s.
func (b *bench) measureSetup(p *pass, n int) error {
	for i := 0; i < n; i++ {
		s, err := b.launch(p)
		if err != nil {
			return err
		}
		b.stopService(s)
	}
	return nil
}

// scrapeDiff adds the change in every /metrics sample since before.
func (b *bench) scrapeDiff(p *pass, s *service, before map[string]float64) error {
	after, err := b.scrape(s)
	if err != nil {
		return err
	}
	if p.diff == nil {
		p.diff = map[string]float64{}
	}
	for k, v := range after {
		p.diff[k] += v - before[k]
	}
	return nil
}

// jobRun is one submitted job as the client saw it.
type jobRun struct {
	id      string
	latency time.Duration // submit until the results are decoded
	polls   int
	fetch   time.Duration // the final GET
	results json.RawMessage
	err     error // refused, unreachable or failed on the server
}

// runJob submits body to POST /{kind} and polls GET /{kind}/{id} every
// pollEvery until the job is done, recording a span per HTTP call.
func (b *bench) runJob(s *service, t *tracer, kind string, body any) (j jobRun) {
	start := time.Now()
	root := t.open(0, "job "+kind, "")
	defer func() { root.job = j.id; root.close() }()

	sp := t.open(root.id, "http POST /"+kind, "")
	resp, status, err := b.post(s.url+"/"+kind, body)
	sp.close()
	if err != nil || status != http.StatusAccepted {
		j.err = fmt.Errorf("submit: HTTP %d %s %v", status, bytes.TrimSpace(resp), err)
		return j
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(resp, &sub); err != nil || sub.ID == "" {
		j.err = fmt.Errorf("submit: no job id in %s", resp)
		return j
	}
	j.id = sub.ID
	for {
		sp := t.open(root.id, "http GET /"+kind+"/{id}", j.id)
		doc, status, err := b.get(s.url + "/" + kind + "/" + j.id)
		var st struct {
			State, Err        string
			Results, Frontier json.RawMessage
		}
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(doc, &st)
		}
		fetch := sp.close()
		j.polls++
		switch {
		case err != nil || status != http.StatusOK:
			j.err = fmt.Errorf("poll %s: HTTP %d %v", j.id, status, err)
			return j
		case st.State == "done":
			j.latency, j.fetch = time.Since(start), fetch
			j.results = st.Results
			if kind == "explore" {
				j.results = st.Frontier
			}
			if st.Err != "" {
				j.err = fmt.Errorf("job %s: %s", j.id, st.Err)
			}
			return j
		case s.worker.exited():
			j.err = fmt.Errorf("job %s: worker exited:\n%s", j.id, s.worker.tail())
			return j
		case time.Since(start) > jobTimeout:
			j.err = fmt.Errorf("job %s: not done after %s", j.id, jobTimeout)
			return j
		}
		time.Sleep(pollEvery)
	}
}

// canonicalOutcomes drops the cache provenance bit (a result is the
// same whether simulated or replayed) and marshals the rest.
func canonicalOutcomes(res *sweep.Results) []byte {
	type flat struct {
		Point  sweep.Point      `json:"point"`
		Key    string           `json:"key"`
		Err    string           `json:"err,omitempty"`
		Result *pipeline.Result `json:"result,omitempty"`
	}
	out := make([]flat, len(res.Outcomes))
	for i, o := range res.Outcomes {
		out[i] = flat{Point: o.Point, Key: o.Key, Err: o.Err, Result: o.Result}
	}
	blob, _ := json.Marshal(out)
	return blob
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// expectedGrid returns the digest a grid's outcomes must have: the
// committed one, or that of an in-process sweep.Engine run.
func (b *bench) expectedGrid(g sweep.Grid) (string, error) {
	key := fmt.Sprintf("grid@%d", g.Scale)
	if d, ok := digests[key]; ok {
		return d, nil
	}
	if d, ok := b.refs[key]; ok {
		return d, nil
	}
	res, err := (&sweep.Engine{Cache: sweep.NewCache(), Parallel: b.nproc}).Run(g, nil)
	if err != nil {
		return "", err
	}
	d := digest(canonicalOutcomes(res))
	b.refs[key] = d
	fmt.Fprintf(os.Stderr, "bench: in-process reference %s = %s\n", key, d)
	return d, nil
}

// checkGrid decodes a grid job's results and compares their digest.
func checkGrid(raw json.RawMessage, want string) (*sweep.Results, error) {
	var res sweep.Results
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	if got := digest(canonicalOutcomes(&res)); got != want {
		return nil, fmt.Errorf("outcome digest %s, want %s", got, want)
	}
	return &res, nil
}

// reps runs job on a fresh service each time until the run length is
// used up, and at least once.
func (b *bench) reps(p *pass, length time.Duration, job func(s *service) error) error {
	for start := time.Now(); p.attempted == 0 || time.Since(start) < length; {
		s, err := b.launch(p)
		if err != nil {
			return err
		}
		if err := job(s); err != nil {
			b.stopService(s)
			return err
		}
		if err := b.finish(p, s); err != nil {
			return err
		}
	}
	return nil
}

// together runs client on n goroutines and waits for all of them.
func together(n int, client func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client(c)
		}(c)
	}
	wg.Wait()
}

// roundLoop runs jobs 0..n-1 closed-loop on p.clients goroutines, each
// client claiming the next job as it finishes one, and adds the window
// from start to the last completion to p.elapsed.
func (b *bench) roundLoop(p *pass, n int, job func(k int)) {
	var mu sync.Mutex
	claimed := 0
	start := time.Now()
	together(p.clients, func(int) {
		for b.ctx.Err() == nil {
			mu.Lock()
			k := claimed
			claimed++
			mu.Unlock()
			if k >= n {
				return
			}
			job(k)
		}
	})
	p.elapsed += time.Since(start)
}

func (b *bench) coldGrid(t *tracer, p *pass, length time.Duration) error {
	g := acceptanceGrid(b.plan.coldScale)
	want, err := b.expectedGrid(g)
	if err != nil {
		return err
	}
	return b.reps(p, length, func(s *service) error {
		var before map[string]float64
		var err error
		if t != nil {
			if before, err = b.scrape(s); err != nil {
				return err
			}
		}
		j := b.runJob(s, t, "sweep", g)
		p.attempted++
		if err := b.ctx.Err(); err != nil {
			return err
		}
		if t != nil {
			if err := b.scrapeDiff(p, s, before); err != nil {
				return err
			}
		}
		res, err := j.res(want)
		if err != nil {
			p.fail("cold-grid %s", err)
			return nil
		}
		p.completed(j)
		p.simMinst = append(p.simMinst, float64(committed(res.Outcomes, true))/1e6/j.latency.Seconds())
		p.in = replayInput{outcomes: res.Outcomes, jobs: [][]sweep.Point{g.Expand()}}
		fmt.Fprintf(os.Stderr, "bench: cold-grid rep %d: %.2f s\n", len(p.lat), j.latency.Seconds())
		return nil
	})
}

// res checks a finished grid job against the expected digest.
func (j jobRun) res(want string) (*sweep.Results, error) {
	if j.err != nil {
		return nil, j.err
	}
	res, err := checkGrid(j.results, want)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.id, err)
	}
	return res, nil
}

// committed sums the instructions of the outcomes' results, optionally
// only those simulated rather than served from the cache.
func committed(outs []*sweep.Outcome, simulatedOnly bool) uint64 {
	var n uint64
	for _, o := range outs {
		if o.Result != nil && !(simulatedOnly && o.Cached) {
			n += o.Result.Committed
		}
	}
	return n
}

func (b *bench) warmGrid(t *tracer, p *pass, length time.Duration) error {
	g := acceptanceGrid(b.plan.warmScale)
	want, err := b.expectedGrid(g)
	if err != nil {
		return err
	}
	// Every warm job must return the same result bytes; the first one
	// is decoded in full and checked against the digest.
	var refMu sync.Mutex
	var ref string
	check := func(j jobRun) error {
		if j.err != nil {
			return j.err
		}
		h := digest(j.results)
		refMu.Lock()
		defer refMu.Unlock()
		if ref == "" {
			res, err := j.res(want)
			if err != nil {
				return err
			}
			if res.Stats.CacheHits != len(res.Outcomes) {
				return fmt.Errorf("%s: %d of %d points cached", j.id, res.Stats.CacheHits, len(res.Outcomes))
			}
			ref = h
		}
		if h != ref {
			return fmt.Errorf("%s: results differ from the first warm job", j.id)
		}
		return nil
	}
	// Each round runs a fixed number of jobs on a fresh service, so peak
	// RSS is read after the same work every time, and its median over
	// rounds shrugs off a round whose collector ran late.
	return b.reps(p, length, func(s *service) error {
		// Fill the cache untimed.
		fill := b.runJob(s, nil, "sweep", g)
		p.attempted++
		res, err := fill.res(want)
		if err != nil {
			p.fail("warm-grid fill %s", err)
			return nil
		}
		p.in = replayInput{outcomes: res.Outcomes, jobs: [][]sweep.Point{g.Expand()}}

		var before map[string]float64
		if t != nil {
			if before, err = b.scrape(s); err != nil {
				return err
			}
		}
		b.roundLoop(p, b.plan.warmRound, func(int) {
			j := b.runJob(s, t, "sweep", g)
			if b.ctx.Err() != nil {
				return // interrupted: the job was not answered
			}
			p.mu.Lock()
			p.attempted++
			p.mu.Unlock()
			if err := check(j); err != nil {
				p.fail("warm-grid %v", err)
				return
			}
			p.completed(j)
		})
		if err := b.ctx.Err(); err != nil {
			return err
		}
		if t != nil {
			return b.scrapeDiff(p, s, before)
		}
		return nil
	})
}

// churnConfig is one churn job's workload and machine: a value from
// every axis's sensitivity range.
type churnConfig struct {
	workload string
	axes     [10]int
}

func (c churnConfig) grid(scale int) sweep.Grid {
	g := sweep.Grid{Workloads: []string{c.workload}, Policies: []string{"conv", "extended"},
		IntRegs: []int{40, 48}, Scale: scale}
	for i, ax := range sweep.MachineAxes() {
		ax.GridSet(&g, []int{c.axes[i]})
	}
	return g
}

// randomConfig draws a machine for the workload whose points all
// validate.
func randomConfig(rng *rand.Rand, workload string, scale int) churnConfig {
	for {
		c := churnConfig{workload: workload}
		for i, ax := range sweep.MachineAxes() {
			c.axes[i] = ax.Sensitivity[rng.Intn(len(ax.Sensitivity))]
		}
		ok := true
		for _, pt := range c.grid(scale).Expand() {
			if _, err := pt.Config(); err != nil {
				ok = false
			}
		}
		if ok {
			return c
		}
	}
}

func (b *bench) churn(t *tracer, p *pass, length time.Duration) error {
	scale := b.plan.churnScale
	names := workloads.Names()
	hotRNG := rand.New(rand.NewSource(hotSeed))
	used := map[churnConfig]bool{}
	var hot []churnConfig
	for len(hot) < hotConfigs {
		if c := randomConfig(hotRNG, names[len(hot)%len(names)], scale); !used[c] {
			used[c] = true
			hot = append(hot, c)
		}
	}
	rng := rand.New(rand.NewSource(b.seed))

	var (
		mu      sync.Mutex
		seen    = map[string]string{} // point key → result digest
		fresh   []sweep.Grid
		freshOK [][]byte
		sim     uint64 // instructions simulated for timed jobs
		outs    []*sweep.Outcome
		jobs    [][]sweep.Point
	)
	// check verifies one job's outcomes against the grid and against
	// every earlier result for the same point, and returns the number
	// of instructions the service simulated for it.
	check := func(j jobRun, g sweep.Grid, isFresh bool) (uint64, error) {
		if j.err != nil {
			return 0, j.err
		}
		var res sweep.Results
		if err := json.Unmarshal(j.results, &res); err != nil {
			return 0, err
		}
		pts := g.Expand()
		if len(res.Outcomes) != len(pts) {
			return 0, fmt.Errorf("%s: %d outcomes, want %d", j.id, len(res.Outcomes), len(pts))
		}
		mu.Lock()
		defer mu.Unlock()
		for i, o := range res.Outcomes {
			if o.Err != "" || o.Result == nil || o.Point != pts[i] {
				return 0, fmt.Errorf("%s: bad outcome %d: %s %s", j.id, i, o.Point, o.Err)
			}
			blob, _ := json.Marshal(o.Result)
			h := digest(blob)
			if prev, ok := seen[o.Key]; ok && prev != h {
				return 0, fmt.Errorf("%s: %s differs from an earlier job", j.id, o.Point)
			} else if !ok {
				seen[o.Key] = h
				outs = append(outs, o)
			}
		}
		if isFresh {
			fresh = append(fresh, g)
			freshOK = append(freshOK, canonicalOutcomes(&res))
		}
		return committed(res.Outcomes, true), nil
	}
	// round draws the next round's jobs from the seed. Every third job
	// reuses the hot set and the others are fresh, so the median job is
	// a miss, and every round simulates the same number of points.
	round := func() []churnConfig {
		cfgs := make([]churnConfig, b.plan.churnRound)
		for k := range cfgs {
			if k%3 == 0 {
				cfgs[k] = hot[rng.Intn(len(hot))]
				continue
			}
			for {
				c := randomConfig(rng, names[rng.Intn(len(names))], scale)
				if !used[c] {
					used[c] = true
					cfgs[k] = c
					break
				}
			}
		}
		return cfgs
	}
	// Each round runs on a fresh service, so peak RSS is read after a
	// fixed number of jobs and its median over rounds shrugs off the
	// round whose trace memory happened to become resident.
	err := b.reps(p, length, func(s *service) error {
		cfgs := round()
		// Fill the hot set untimed, so that the round's hit ratio is the
		// same from its first job to its last. One job at a time builds
		// the traces in the same order every round.
		for i := 0; i < len(hot) && b.ctx.Err() == nil; i++ {
			g := hot[i].grid(scale)
			j := b.runJob(s, nil, "sweep", g)
			p.attempted++
			if _, err := check(j, g, false); err != nil {
				p.fail("churn fill %v", err)
			}
		}
		if err := b.ctx.Err(); err != nil {
			return err
		}
		var before map[string]float64
		var err error
		if t != nil {
			if before, err = b.scrape(s); err != nil {
				return err
			}
		}

		b.roundLoop(p, len(cfgs), func(k int) {
			g := cfgs[k].grid(scale)
			j := b.runJob(s, t, "sweep", g)
			if b.ctx.Err() != nil {
				return
			}
			p.mu.Lock()
			p.attempted++
			if len(jobs) < 64 {
				jobs = append(jobs, g.Expand())
			}
			p.mu.Unlock()
			insts, err := check(j, g, k%3 != 0)
			if err != nil {
				p.fail("churn %v", err)
				return
			}
			mu.Lock()
			sim += insts
			mu.Unlock()
			p.completed(j)
		})
		if err := b.ctx.Err(); err != nil {
			return err
		}
		if t != nil {
			return b.scrapeDiff(p, s, before)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.simMinst = []float64{float64(sim) / 1e6 / p.elapsed.Seconds()}
	p.in = replayInput{outcomes: outs, jobs: jobs}

	// Re-run a seeded sample of fresh jobs in-process and compare bytes.
	eng := &sweep.Engine{Cache: sweep.NewCache(), Parallel: b.nproc}
	order := rand.New(rand.NewSource(b.seed)).Perm(len(fresh))
	for _, i := range order[:min(churnCheck, len(order))] {
		res, err := eng.Run(fresh[i], nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(canonicalOutcomes(res), freshOK[i]) {
			p.fail("churn: service results for %s differ from an in-process run", fresh[i].Workloads[0])
		}
	}
	return nil
}

func (b *bench) exploreSpec() search.Spec {
	return search.Spec{Strategy: "halving", Budget: b.plan.exploreBudget, Seed: exploreSeed,
		Scale: b.plan.exploreScale, Workloads: exploreWorkloads}
}

func (b *bench) explore(t *tracer, p *pass, length time.Duration) error {
	spec := b.exploreSpec()
	key := fmt.Sprintf("explore@%d/budget=%d/seed=%d", spec.Scale, spec.Budget, spec.Seed)
	want := digests[key]
	return b.reps(p, length, func(s *service) error {
		var before map[string]float64
		var err error
		if t != nil {
			if before, err = b.scrape(s); err != nil {
				return err
			}
		}
		j := b.runJob(s, t, "explore", spec)
		p.attempted++
		if err := b.ctx.Err(); err != nil {
			return err
		}
		if t != nil {
			if err := b.scrapeDiff(p, s, before); err != nil {
				return err
			}
		}
		canon, err := checkFrontier(j)
		if err == nil {
			// Without a committed digest, every rep must agree with the first.
			if want == "" {
				want = digest(canon)
				fmt.Fprintf(os.Stderr, "bench: frontier %s = %s\n", key, want)
			}
			if got := digest(canon); got != want {
				err = fmt.Errorf("%s: frontier digest %s, want %s", j.id, got, want)
			}
		}
		if err != nil {
			p.fail("explore %v", err)
			return nil
		}
		// Simulated instructions: every cached result was simulated by
		// this rep, since the service started empty.
		export, status, err := b.get(s.url + "/cache/export")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("cache export: HTTP %d %v", status, err)
		}
		var insts uint64
		sc := bufio.NewScanner(bytes.NewReader(export))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var rec struct{ Result pipeline.Result }
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return fmt.Errorf("cache export: %w", err)
			}
			insts += rec.Result.Committed
		}
		p.completed(j)
		p.simMinst = append(p.simMinst, float64(insts)/1e6/j.latency.Seconds())
		p.in = replayInput{spec: &spec, export: export, frontier: canon}
		fmt.Fprintf(os.Stderr, "bench: explore rep %d: %.2f s\n", len(p.lat), j.latency.Seconds())
		return nil
	})
}

// checkFrontier validates a finished exploration and returns its
// canonical JSON.
func checkFrontier(j jobRun) ([]byte, error) {
	if j.err != nil {
		return nil, j.err
	}
	var fr search.Frontier
	if err := json.Unmarshal(j.results, &fr); err != nil {
		return nil, err
	}
	if !fr.NonDominated || fr.CandidateErrors != 0 || fr.Points.Errors != 0 || len(fr.Frontier) == 0 {
		return nil, fmt.Errorf("%s: bad frontier: non-dominated %v, %d candidate errors, %d point errors, %d members",
			j.id, fr.NonDominated, fr.CandidateErrors, fr.Points.Errors, len(fr.Frontier))
	}
	return json.Marshal(&fr)
}
