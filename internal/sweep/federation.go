package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"earlyrelease/internal/obs"
)

// This file is the coordinator half of federated sweep execution (the
// worker half is worker.go; DESIGN.md §4.3 documents the protocol).
// A Coordinator plans each submitted grid into cost-balanced shards
// (ShardPlanner), serves them to workers under TTL-bounded leases, and
// assembles verified completions into the same Results an in-process
// Engine.Run would return — byte-identical, because workers run the
// identical simulation path. Failure model:
//
//   - a worker that dies mid-lease simply stops renewing; the lease
//     expires and the shard is requeued for another worker
//   - a completion whose keys don't match the planned shard (or whose
//     envelope checksum fails before that) is rejected whole — nothing
//     unverified ever reaches the shared cache
//   - a shard abandoned MaxAttempts times fails its points with an
//     error outcome instead of looping forever
//
// Expiry scanning is piggybacked on every lease/complete/status call
// and on the submitter's wait loop, so no background timer is needed
// and tests drive the state machine deterministically.

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrStaleLease rejects a completion for a lease that expired (and
	// was requeued) or never existed.
	ErrStaleLease = errors.New("sweep: unknown or expired lease")
	// ErrWrongWorker rejects a completion from a worker that does not
	// hold the lease.
	ErrWrongWorker = errors.New("sweep: lease held by a different worker")
	// ErrUnknownWorker rejects a lease request from an unregistered
	// worker (workers re-register on seeing it, e.g. after a
	// coordinator restart).
	ErrUnknownWorker = errors.New("sweep: unknown worker")
	// ErrBadPayload rejects a completion whose outcomes fail
	// verification against the planned shard.
	ErrBadPayload = errors.New("sweep: completion failed verification")
	// ErrClosed aborts jobs still queued when the coordinator shuts down.
	ErrClosed = errors.New("sweep: coordinator closed")
)

// CoordConfig tunes the coordinator; the zero value is production-ready.
type CoordConfig struct {
	LeaseTTL    time.Duration // work lease lifetime between renewals (0 = 30s)
	MaxAttempts int           // lease grants per shard before it fails (0 = 5)
	Planner     ShardPlanner  // shard sizing/balancing (zero = defaults)

	// StateDir enables durable crash-resume (OpenCoordinator): a WAL +
	// snapshot pair under this directory journals every queue
	// transition, and a restarted coordinator replays it to exactly
	// the pre-crash queue. Empty = memory-only.
	StateDir string
	// SnapshotEvery is the WAL record count between automatic
	// compactions (0 = 256).
	SnapshotEvery int

	// now overrides the clock in tests.
	now func() time.Time
}

// WorkerStatus is one registered worker's public state.
type WorkerStatus struct {
	ID           string    `json:"id"`
	Name         string    `json:"name"`
	LastSeen     time.Time `json:"last_seen"`
	ActiveLeases int       `json:"active_leases"`
	ShardsDone   int       `json:"shards_done"`
	PointsDone   int       `json:"points_done"`
	Expiries     int       `json:"expiries"` // leases lost to TTL expiry
	// PointsPerSec is an EWMA of the worker's simulation throughput,
	// fed by the w:simulate span each completion piggybacks (0 until
	// the first timed completion).
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
}

// RegisterReply tells a fresh worker its identity and how often to
// renew leases (renew well under TTL; TTL/3 is the convention).
type RegisterReply struct {
	WorkerID string        `json:"worker_id"`
	LeaseTTL time.Duration `json:"lease_ttl"`
}

// CoordCounters are the coordinator's lifetime totals, the substrate
// of sweepd's /metrics endpoint. They are in-memory only (monotonic
// within one process, reset on restart — exactly what a Prometheus
// counter expects across process restarts).
type CoordCounters struct {
	JobsSubmitted   uint64 `json:"jobs_submitted"`
	JobsDone        uint64 `json:"jobs_done"`
	PointsSubmitted uint64 `json:"points_submitted"`
	PointsDone      uint64 `json:"points_done"`
	PointsSimulated uint64 `json:"points_simulated"`
	PointsCached    uint64 `json:"points_cached"`
	PointsFailed    uint64 `json:"points_failed"`
	LeasesGranted   uint64 `json:"leases_granted"`
	LeaseRenewals   uint64 `json:"lease_renewals"`
	LeaseExpiries   uint64 `json:"lease_expiries"`
	ShardsCompleted uint64 `json:"shards_completed"`
	ShardsRequeued  uint64 `json:"shards_requeued"`
	ShardsAbandoned uint64 `json:"shards_abandoned"`
	// CompletionsRejected counts CompleteShard payloads that failed
	// verification (ErrBadPayload).
	CompletionsRejected uint64 `json:"completions_rejected"`
}

// LeaseStatus is one in-flight lease, for the ops surface (sweeptop's
// slowest-shards view sorts these by age).
type LeaseStatus struct {
	ID      string `json:"id"`
	Shard   string `json:"shard"`
	Worker  string `json:"worker"`
	Attempt int    `json:"attempt"`
	Points  int    `json:"points"`
	AgeMS   int64  `json:"age_ms"`
	LeftMS  int64  `json:"left_ms"` // time to expiry (negative = reapable)
	Trace   string `json:"trace,omitempty"`
}

// FederationStatus is the coordinator's queue/registry snapshot.
type FederationStatus struct {
	PendingShards int            `json:"pending_shards"`
	PendingPoints int            `json:"pending_points"`
	ActiveLeases  int            `json:"active_leases"`
	Workers       []WorkerStatus `json:"workers"`
	// Leases lists in-flight leases, oldest first.
	Leases []LeaseStatus `json:"leases,omitempty"`
	// JournalErr surfaces a sticky state-dir persistence failure: the
	// coordinator keeps serving (degraded to memory-only durability)
	// but the operator should know resume is compromised.
	JournalErr string `json:"journal_err,omitempty"`
}

// Coordinator owns the shared cache, the shard queue and the lease
// table. One Coordinator serves many concurrent Run calls (sweepd
// submissions) and many workers, local or remote.
type Coordinator struct {
	cfg   CoordConfig
	cache *Cache

	mu      sync.Mutex
	pending []*fedShard // FIFO; expiry requeues push to the front
	leases  map[string]*fedLease
	workers map[string]*workerState
	// workerIDs keeps registration order for listings; entries whose
	// worker aged out of the registry are skipped (and compacted) on
	// Status.
	workerIDs []string
	seq       int
	closed    bool
	quit      chan struct{}
	counters  CoordCounters

	// Durability (journal.go). jrn is nil on a memory-only
	// coordinator; jobs tracks journaled submissions until their
	// waiters collect results; recovered lists what OpenCoordinator
	// replayed from the state dir.
	jrn       *journal
	jobs      map[string]*fedJob
	recovered []RecoveredJob

	// Observability (DESIGN.md §4.9). rec assembles per-trace
	// timelines; the histograms aggregate orchestration latencies and
	// have their own locks (Observe never contends on c.mu). adopting
	// suppresses span emission while recovery replays finishLocked —
	// the replayed spans already carry the history.
	rec       *obs.Recorder
	queueWait *obs.Histogram // shard queue wait, seconds
	service   *obs.Histogram // worker-reported shard service time, seconds
	pointSim  *obs.Histogram // per-point simulation time, seconds
	leaseAge  *obs.Histogram // lease age at completion, seconds
	adopting  bool
}

type fedJob struct {
	res    *Results
	total  int
	done   int
	onProg func(Progress)
	doneCh chan struct{}

	// Journaled submissions keep their identity and full point list so
	// snapshots are self-contained; all zero on a memory-only
	// coordinator.
	id     string
	label  string
	meta   json.RawMessage
	points []Point
	keys   []string

	// trace names the job's timeline in the recorder (minted at submit
	// if the caller supplied none; always set on live submissions).
	trace string
}

// workUnit binds a planned WorkItem to its slot in the submitting job.
type workUnit struct {
	item   WorkItem
	jobIdx int
	job    *fedJob
}

type fedShard struct {
	id      string
	units   []workUnit
	attempt int // lease grants so far
	// queuedAt is when the shard (re)entered the pending queue; the
	// next grant observes now-queuedAt as queue wait. Zero on shards
	// rebuilt by crash recovery (their wait is not observed).
	queuedAt time.Time
}

// trace names the timeline of the shard's owning job (every unit in a
// shard belongs to one submission).
func (sh *fedShard) job() *fedJob {
	if len(sh.units) == 0 {
		return nil
	}
	return sh.units[0].job
}

type fedLease struct {
	id       string
	workerID string
	shard    *fedShard
	deadline time.Time
	// grantedAt feeds the run span and the lease-age-at-completion
	// histogram. Zero on leases rebuilt by crash recovery.
	grantedAt time.Time
}

type workerState struct {
	WorkerStatus
	rate obs.EWMA // points/s samples from timed completions
}

// NewCoordinator builds a coordinator around a shared cache (nil = a
// fresh in-memory cache).
func NewCoordinator(cache *Cache, cfg CoordConfig) *Coordinator {
	if cache == nil {
		cache = NewCache()
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Coordinator{
		cfg:       cfg,
		cache:     cache,
		leases:    make(map[string]*fedLease),
		workers:   make(map[string]*workerState),
		jobs:      make(map[string]*fedJob),
		quit:      make(chan struct{}),
		rec:       obs.NewRecorder(),
		queueWait: obs.NewHistogram(obs.DurationBuckets()),
		service:   obs.NewHistogram(obs.DurationBuckets()),
		pointSim:  obs.NewHistogram(obs.FineDurationBuckets()),
		leaseAge:  obs.NewHistogram(obs.DurationBuckets()),
	}
}

// Cache exposes the coordinator's shared result cache: the one that
// accepted shard completions fill and that Run serves hits from.
func (c *Coordinator) Cache() *Cache { return c.cache }

// LeaseTTL reports the configured lease lifetime.
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

// Close shuts the coordinator down: blocked Run calls return
// ErrClosed, and LeaseShard/RenewLease/CompleteShard reject with
// ErrClosed so workers really do stop getting work. On a durable
// coordinator the full queue is snapshotted first — Close is the
// graceful-shutdown path, and a reopened coordinator resumes exactly
// this state.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.jrn != nil {
		c.snapshotLocked()
		c.jrn.fail(c.jrn.wal.Close())
	}
	c.closeLocked()
}

// closeLocked marks the coordinator closed and empties the queue and
// lease table, so no late CompleteShard or lease-strip can call
// finishLocked again — a waiter that returned ErrClosed never races a
// write to its job's results.
func (c *Coordinator) closeLocked() {
	c.closed = true
	close(c.quit)
	c.pending = nil
	c.leases = make(map[string]*fedLease)
}

// RunPoints is RunJob for an anonymous, untraced point list — the
// search.Evaluator adapter the explorer drives.
func (c *Coordinator) RunPoints(points []Point, onProgress func(Progress)) (*Results, error) {
	return c.RunJob("", "", nil, points, onProgress)
}

// RunJob queues the points' cache misses as shards and blocks until
// every point is resolved — the federated counterpart of Engine.Run
// with the same Results/Stats/progress contracts. Work is executed by
// whatever workers are attached (including the embedded local workers
// sweepd starts); with none attached the call blocks until one joins
// or the coordinator closes.
//
// A non-empty label (sweepd uses the sweep id) makes the submission
// survive a coordinator restart: the label and meta blob (the
// submitted grid) are journaled with the point list, and a reopened
// coordinator reports the job under Recovered for ResumeRecovered to
// pick up. traceID names the job's timeline (sweepd mints one per
// submission, or adopts the client's traceparent); empty makes the
// coordinator mint its own.
func (c *Coordinator) RunJob(traceID, label string, meta json.RawMessage, points []Point, onProgress func(Progress)) (*Results, error) {
	job := &fedJob{
		res:    &Results{Outcomes: make([]*Outcome, len(points))},
		total:  len(points),
		onProg: onProgress,
		doneCh: make(chan struct{}),
	}
	job.res.Stats.Points = len(points)
	submitAt := c.cfg.now()

	// Resolve keys off the lock (hashing is CPU work), then classify.
	keys, keyErrs := Keys(points)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.counters.JobsSubmitted++
	c.counters.PointsSubmitted += uint64(len(points))
	if traceID == "" {
		c.seq++
		traceID = fmt.Sprintf("tr-%d", c.seq)
	}
	job.trace = traceID
	c.rec.Begin(traceID, label)
	if c.jrn != nil {
		c.seq++
		job.id = fmt.Sprintf("job-%d", c.seq)
		job.label, job.meta, job.points, job.keys = label, meta, points, keys
		c.jobs[job.id] = job
		c.journal(recTypeJob, jobRec{ID: job.id, Label: label, Trace: traceID,
			Meta: meta, Points: points, Keys: keys})
	}
	var missIdx []int
	for i, pt := range points {
		if err := keyErrs[i]; err != nil {
			keys[i] = ""
			c.finishLocked(job, i, &Outcome{Point: pt, Err: err.Error()})
			continue
		}
		if r, ok := c.cache.Get(keys[i]); ok {
			c.finishLocked(job, i, &Outcome{Point: pt, Key: keys[i], Cached: true, Result: r})
			continue
		}
		missIdx = append(missIdx, i)
	}
	if c.jrn != nil && job.done > 0 {
		rec := doneRec{Job: job.id}
		for i, o := range job.res.Outcomes {
			if o != nil {
				rec.Entries = append(rec.Entries, doneEntry{Idx: i, Cached: o.Cached,
					Err: o.Err, Result: o.Result})
			}
		}
		c.journal(recTypeDone, rec)
	}
	classifiedAt := c.cfg.now()
	c.spanLocked(job, obs.Span{Name: "submit",
		StartNS: submitAt.UnixNano(), EndNS: classifiedAt.UnixNano(),
		Detail: fmt.Sprintf("%d points, %d cached", len(points), job.res.Stats.CacheHits)})
	if len(missIdx) > 0 {
		missPts := make([]Point, len(missIdx))
		for j, i := range missIdx {
			missPts[j] = points[i]
		}
		planner := c.cfg.Planner
		if n := len(c.workers); n > planner.MinShards {
			planner.MinShards = n
		}
		var plan planRec
		var shardSpans []obs.Span
		for _, group := range planner.Plan(missPts) {
			c.seq++
			sh := &fedShard{id: fmt.Sprintf("sh-%d", c.seq)}
			for _, j := range group {
				i := missIdx[j]
				sh.units = append(sh.units, workUnit{
					item: WorkItem{Point: points[i], Key: keys[i]}, jobIdx: i, job: job})
			}
			c.pending = append(c.pending, sh)
			if c.jrn != nil {
				plan.Shards = append(plan.Shards, shardState(sh))
			}
			shardSpans = append(shardSpans, obs.Span{Name: "shard", Ref: sh.id,
				Detail: fmt.Sprintf("%d points", len(sh.units))})
		}
		if c.jrn != nil {
			c.journal(recTypePlan, plan)
		}
		plannedAt := c.cfg.now()
		for _, sh := range c.pending[len(c.pending)-len(shardSpans):] {
			sh.queuedAt = plannedAt
		}
		c.spanLocked(job, obs.Span{Name: "plan",
			StartNS: classifiedAt.UnixNano(), EndNS: plannedAt.UnixNano(),
			Detail: fmt.Sprintf("%d shards for %d misses", len(shardSpans), len(missIdx))})
		for _, s := range shardSpans {
			s.StartNS, s.EndNS = plannedAt.UnixNano(), plannedAt.UnixNano()
			c.spanLocked(job, s)
		}
	}
	c.mu.Unlock()

	return c.wait(job)
}

// spanLocked records one span on the job's timeline and journals it on
// a durable coordinator so timelines survive crash-resume. Callers
// hold c.mu. No-op while recovery replays (adopting) — the restored
// timeline already holds history — and on pre-trace jobs.
func (c *Coordinator) spanLocked(job *fedJob, s obs.Span) {
	if job == nil || job.trace == "" || c.adopting {
		return
	}
	c.rec.Record(job.trace, s)
	if c.jrn != nil && job.id != "" {
		c.journal(recTypeSpan, spanRec{Trace: job.trace, Label: job.label, Spans: []obs.Span{s}})
	}
}

// wait blocks until the job completes or the coordinator closes. The
// done channel is always preferred over the quit channel: a job whose
// last point resolved in the same instant the coordinator shut down
// returns its finished Results, never a spurious ErrClosed.
func (c *Coordinator) wait(job *fedJob) (*Results, error) {
	c.mu.Lock()
	done := job.done == job.total
	c.mu.Unlock()

	if !done {
		// Wake periodically to reap expired leases even if no worker is
		// polling (e.g. every worker died: the shard must still fail
		// over to MaxAttempts exhaustion instead of hanging forever).
		tick := c.cfg.LeaseTTL / 4
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		for waiting := true; waiting; {
			select {
			case <-job.doneCh:
				waiting = false
			case <-c.quit:
				select {
				case <-job.doneCh:
					waiting = false
				default:
					return nil, ErrClosed
				}
			case <-time.After(tick):
				c.mu.Lock()
				c.reapLocked(c.cfg.now())
				c.mu.Unlock()
			}
		}
	}

	c.mu.Lock()
	if c.jrn != nil && !c.closed && job.id != "" {
		c.journal(recTypeJobDone, jobDoneRec{Job: job.id})
		delete(c.jobs, job.id)
	}
	c.mu.Unlock()

	if err := c.cache.Save(); err != nil {
		job.res.SaveErr = err.Error()
	}
	return job.res, nil
}

// finishLocked records one resolved point and publishes progress.
// Callers hold c.mu, so progress callbacks are serialized with
// strictly increasing Done counts (the Engine.Run contract).
func (c *Coordinator) finishLocked(job *fedJob, idx int, o *Outcome) {
	job.res.Outcomes[idx] = o
	job.done++
	c.counters.PointsDone++
	st := &job.res.Stats
	if o.Cached {
		st.CacheHits++
		c.counters.PointsCached++
	}
	if o.Err != "" {
		st.Errors++
		c.counters.PointsFailed++
	} else if !o.Cached {
		st.Simulated++
		c.counters.PointsSimulated++
	}
	if job.onProg != nil {
		job.onProg(Progress{Total: job.total, Done: job.done,
			CacheHits: st.CacheHits, Errors: st.Errors, Last: o.Point.String()})
	}
	if job.done == job.total {
		c.counters.JobsDone++
		now := c.cfg.now().UnixNano()
		c.spanLocked(job, obs.Span{Name: "done", StartNS: now, EndNS: now,
			Detail: fmt.Sprintf("%d points: %d simulated, %d cached, %d failed",
				job.total, st.Simulated, st.CacheHits, st.Errors)})
		close(job.doneCh)
	}
}

// reapLocked expires overdue leases: each one's shard is requeued at
// the front (another worker picks it up next) until MaxAttempts lease
// grants have been burned, after which the shard's points fail with an
// error outcome.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, ls := range c.leases {
		if now.Before(ls.deadline) {
			continue
		}
		delete(c.leases, id)
		c.counters.LeaseExpiries++
		c.journal(recTypeBurn, burnRec{ID: id})
		if w := c.workers[ls.workerID]; w != nil {
			w.ActiveLeases--
			w.Expiries++
		}
		c.spanLocked(ls.shard.job(), obs.Span{Name: "expire", Ref: ls.shard.id,
			Worker: ls.workerID, StartNS: now.UnixNano(), EndNS: now.UnixNano(),
			Detail: fmt.Sprintf("lease %s ttl elapsed", id)})
		c.abandonOrRequeueLocked(ls.shard, now)
	}
	for id, w := range c.workers {
		if w.ActiveLeases == 0 && now.Sub(w.LastSeen) > c.workerExpiry() {
			delete(c.workers, id)
		}
	}
}

// workerExpiry is how long a silent, lease-free worker stays in the
// registry. Workers heartbeat while idle and touch LastSeen on every
// lease call, so only the genuinely departed age out — keeping the
// registry (and the MinShards worker count it feeds) honest on a
// long-lived coordinator.
func (c *Coordinator) workerExpiry() time.Duration {
	return 10 * c.cfg.LeaseTTL
}

// abandonOrRequeueLocked gives a recovered shard back to the queue, or
// fails its points once MaxAttempts lease grants have been burned.
func (c *Coordinator) abandonOrRequeueLocked(sh *fedShard, now time.Time) {
	if sh.attempt >= c.cfg.MaxAttempts {
		c.counters.ShardsAbandoned++
		msg := fmt.Sprintf("sweep: shard %s abandoned after %d burned leases", sh.id, sh.attempt)
		c.spanLocked(sh.job(), obs.Span{Name: "abandon", Ref: sh.id,
			StartNS: now.UnixNano(), EndNS: now.UnixNano(),
			Detail: fmt.Sprintf("%d burned leases", sh.attempt)})
		rec := doneRec{}
		for _, u := range sh.units {
			rec.Job = u.job.id
			rec.Entries = append(rec.Entries, doneEntry{Idx: u.jobIdx, Err: msg})
			c.finishLocked(u.job, u.jobIdx, &Outcome{Point: u.item.Point, Key: u.item.Key, Err: msg})
		}
		if c.jrn != nil && rec.Job != "" {
			c.journal(recTypeDone, rec)
		}
		return
	}
	c.counters.ShardsRequeued++
	sh.queuedAt = now
	c.spanLocked(sh.job(), obs.Span{Name: "requeue", Ref: sh.id,
		StartNS: now.UnixNano(), EndNS: now.UnixNano(),
		Detail: fmt.Sprintf("attempt %d of %d", sh.attempt, c.cfg.MaxAttempts)})
	c.pending = append([]*fedShard{sh}, c.pending...)
}

// RegisterWorker adds a worker to the registry and names it.
func (c *Coordinator) RegisterWorker(name string) (RegisterReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	id := fmt.Sprintf("wk-%d", c.seq)
	if name == "" {
		name = id
	}
	c.workers[id] = &workerState{WorkerStatus: WorkerStatus{ID: id, Name: name, LastSeen: c.cfg.now()}}
	c.workerIDs = append(c.workerIDs, id)
	return RegisterReply{WorkerID: id, LeaseTTL: c.cfg.LeaseTTL}, nil
}

// HeartbeatWorker refreshes a worker's liveness timestamp.
func (c *Coordinator) HeartbeatWorker(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[workerID]
	if w == nil {
		return ErrUnknownWorker
	}
	w.LastSeen = c.cfg.now()
	return nil
}

// LeaseShard hands the requesting worker the next pending shard, or
// nil when the queue is empty. Points that landed in the shared cache
// since planning (another job finished them) are stripped from the
// lease and served as cache hits on the spot — the queue never makes a
// worker resimulate a known result.
func (c *Coordinator) LeaseShard(workerID string) (*LeaseGrant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// The Close contract: workers polling a closed coordinator get
		// nothing, explicitly — not a silently still-live queue.
		return nil, ErrClosed
	}
	now := c.cfg.now()
	c.reapLocked(now)
	w := c.workers[workerID]
	if w == nil {
		return nil, ErrUnknownWorker
	}
	w.LastSeen = now

	for len(c.pending) > 0 {
		sh := c.pending[0]
		c.pending = c.pending[1:]

		job := sh.job() // before stripping: an emptied shard forgets its owner
		kept := sh.units[:0]
		var strips doneRec
		for _, u := range sh.units {
			if r, ok := c.cache.Get(u.item.Key); ok {
				strips.Job = u.job.id
				strips.Entries = append(strips.Entries,
					doneEntry{Idx: u.jobIdx, Cached: true, Result: r})
				c.finishLocked(u.job, u.jobIdx,
					&Outcome{Point: u.item.Point, Key: u.item.Key, Cached: true, Result: r})
				continue
			}
			kept = append(kept, u)
		}
		sh.units = kept
		if c.jrn != nil && strips.Job != "" {
			c.journal(recTypeDone, strips)
		}
		if len(sh.units) == 0 {
			// The whole shard was satisfied by results a sibling job put
			// in the shared cache since planning. That still completes the
			// shard — the timeline must say so, or a shard span would dangle
			// with no matching complete.
			c.spanLocked(job, obs.Span{Name: "complete", Ref: sh.id,
				StartNS: now.UnixNano(), EndNS: now.UnixNano(),
				Detail: "served from shared cache"})
			continue
		}

		sh.attempt++
		c.seq++
		ls := &fedLease{
			id:        fmt.Sprintf("ls-%d", c.seq),
			workerID:  workerID,
			shard:     sh,
			deadline:  now.Add(c.cfg.LeaseTTL),
			grantedAt: now,
		}
		c.leases[ls.id] = ls
		c.counters.LeasesGranted++
		c.journal(recTypeLease, leaseRec{ID: ls.id, Worker: workerID, Shard: sh.id,
			Attempt: sh.attempt, Deadline: ls.deadline.UnixMilli()})
		w.ActiveLeases++
		wait := time.Duration(0)
		if !sh.queuedAt.IsZero() {
			wait = now.Sub(sh.queuedAt)
			c.queueWait.Observe(wait.Seconds())
		}
		c.spanLocked(job, obs.Span{Name: "lease", Ref: sh.id, Worker: workerID,
			StartNS: now.UnixNano(), EndNS: now.UnixNano(),
			Detail: fmt.Sprintf("lease %s attempt %d, %d points, queued %dms",
				ls.id, sh.attempt, len(sh.units), wait.Milliseconds())})
		grant := &LeaseGrant{
			LeaseID: ls.id, ShardID: sh.id, Attempt: sh.attempt, TTL: c.cfg.LeaseTTL,
			Items: make([]WorkItem, len(sh.units)),
		}
		if job != nil {
			grant.TraceID = job.trace
		}
		for i, u := range sh.units {
			grant.Items[i] = u.item
		}
		return grant, nil
	}
	return nil, nil
}

// RenewLease extends a held lease by one TTL. Only the worker the
// lease was granted to may renew it: a stray or malicious renewal from
// another worker gets ErrWrongWorker instead of keeping somebody
// else's lease alive.
func (c *Coordinator) RenewLease(workerID, leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.reapLocked(c.cfg.now())
	ls := c.leases[leaseID]
	if ls == nil {
		return ErrStaleLease
	}
	if ls.workerID != workerID {
		return ErrWrongWorker
	}
	ls.deadline = c.cfg.now().Add(c.cfg.LeaseTTL)
	c.counters.LeaseRenewals++
	c.journal(recTypeRenew, renewRec{ID: ls.id, Deadline: ls.deadline.UnixMilli()})
	return nil
}

// CompleteShard accepts a worker's results for a leased shard. The
// payload is verified against the plan before anything is believed:
// outcome count and order must match the lease, every reported key
// must equal the planned content key, and every outcome must carry
// exactly one of a result or an error. Any violation rejects the
// whole payload with ErrBadPayload and requeues the shard immediately
// — a corrupt or malicious report can cost time, never correctness,
// and the cache is never poisoned.
func (c *Coordinator) CompleteShard(req *CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	now := c.cfg.now()
	c.reapLocked(now)
	ls := c.leases[req.LeaseID]
	if ls == nil {
		return ErrStaleLease
	}
	if ls.workerID != req.WorkerID {
		return ErrWrongWorker
	}
	sh := ls.shard

	verify := func() error {
		if len(req.Outcomes) != len(sh.units) {
			return fmt.Errorf("%w: %d outcomes for %d leased points",
				ErrBadPayload, len(req.Outcomes), len(sh.units))
		}
		for i, o := range req.Outcomes {
			if o.Key != sh.units[i].item.Key {
				return fmt.Errorf("%w: outcome %d key %.12s… does not match planned key %.12s…",
					ErrBadPayload, i, o.Key, sh.units[i].item.Key)
			}
			if (o.Err == "") == (o.Result == nil) {
				return fmt.Errorf("%w: outcome %d must carry exactly one of result or error",
					ErrBadPayload, i)
			}
		}
		return nil
	}
	if err := verify(); err != nil {
		// Burn this lease and requeue at the front so a healthy worker
		// retries without waiting out the TTL — under the same
		// MaxAttempts budget as expiry, so a worker that persistently
		// reports garbage cannot cycle the shard forever.
		c.counters.CompletionsRejected++
		delete(c.leases, req.LeaseID)
		c.journal(recTypeBurn, burnRec{ID: req.LeaseID})
		if w := c.workers[ls.workerID]; w != nil {
			w.ActiveLeases--
		}
		c.spanLocked(sh.job(), obs.Span{Name: "reject", Ref: sh.id, Worker: ls.workerID,
			StartNS: now.UnixNano(), EndNS: now.UnixNano(), Detail: err.Error()})
		c.abandonOrRequeueLocked(sh, now)
		return err
	}

	delete(c.leases, req.LeaseID)
	c.counters.ShardsCompleted++
	// In the journal a completion is a burn (the lease is gone, the
	// shard notionally requeued) followed by its outcomes resolving —
	// which empties the shard out of the queue again on replay.
	c.journal(recTypeBurn, burnRec{ID: req.LeaseID})
	job := sh.job()
	// Adopt the worker's piggybacked spans onto the job's timeline,
	// stamped with the lease's worker id (the lease, not the payload,
	// is the authority on who ran the shard). The w:simulate span also
	// feeds the service-time histogram and the worker's points/s EWMA.
	var simSec float64
	for _, ws := range req.Spans {
		ws.Worker = ls.workerID
		if ws.Ref == "" {
			ws.Ref = sh.id
		}
		if ws.Name == "w:simulate" {
			simSec = ws.Duration().Seconds()
		}
		c.spanLocked(job, ws)
	}
	for _, ns := range req.PointNS {
		if ns > 0 {
			c.pointSim.Observe(float64(ns) / 1e9)
		}
	}
	if simSec > 0 {
		c.service.Observe(simSec)
	}
	w := c.workers[ls.workerID]
	if w != nil {
		w.ActiveLeases--
		w.ShardsDone++
		w.PointsDone += len(sh.units)
		if simSec > 0 {
			w.rate.Observe(float64(len(sh.units)) / simSec)
			w.PointsPerSec = w.rate.Value()
		}
	}
	if !ls.grantedAt.IsZero() {
		age := now.Sub(ls.grantedAt)
		c.leaseAge.Observe(age.Seconds())
		c.spanLocked(job, obs.Span{Name: "run", Ref: sh.id, Worker: ls.workerID,
			StartNS: ls.grantedAt.UnixNano(), EndNS: now.UnixNano(),
			Detail: fmt.Sprintf("lease %s", ls.id)})
	}
	rec := doneRec{}
	putStart := c.cfg.now()
	for i, u := range sh.units {
		o := req.Outcomes[i]
		if o.Err == "" {
			c.cache.Put(u.item.Key, o.Result)
		}
		rec.Job = u.job.id
		rec.Entries = append(rec.Entries, doneEntry{Idx: u.jobIdx, Err: o.Err, Result: o.Result})
		c.finishLocked(u.job, u.jobIdx,
			&Outcome{Point: u.item.Point, Key: u.item.Key, Result: o.Result, Err: o.Err})
	}
	putEnd := c.cfg.now()
	c.spanLocked(job, obs.Span{Name: "cacheput", Ref: sh.id,
		StartNS: putStart.UnixNano(), EndNS: putEnd.UnixNano(),
		Detail: "shared-cache write-back"})
	c.spanLocked(job, obs.Span{Name: "complete", Ref: sh.id, Worker: ls.workerID,
		StartNS: putEnd.UnixNano(), EndNS: putEnd.UnixNano(),
		Detail: fmt.Sprintf("%d points", len(sh.units))})
	if c.jrn != nil && rec.Job != "" {
		c.journal(recTypeDone, rec)
	}
	return nil
}

// Counters snapshots the coordinator's lifetime totals.
func (c *Coordinator) Counters() CoordCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Status snapshots the queue and worker registry.
func (c *Coordinator) Status() FederationStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.cfg.now())
	st := FederationStatus{
		PendingShards: len(c.pending),
		ActiveLeases:  len(c.leases),
	}
	if c.jrn != nil && c.jrn.err != nil {
		st.JournalErr = c.jrn.err.Error()
	}
	for _, sh := range c.pending {
		st.PendingPoints += len(sh.units)
	}
	live := c.workerIDs[:0]
	for _, id := range c.workerIDs {
		if w, ok := c.workers[id]; ok {
			live = append(live, id)
			st.Workers = append(st.Workers, w.WorkerStatus)
		}
	}
	c.workerIDs = live
	now := c.cfg.now()
	for _, ls := range c.leases {
		l := LeaseStatus{ID: ls.id, Shard: ls.shard.id, Worker: ls.workerID,
			Attempt: ls.shard.attempt, Points: len(ls.shard.units),
			LeftMS: ls.deadline.Sub(now).Milliseconds()}
		if !ls.grantedAt.IsZero() {
			l.AgeMS = now.Sub(ls.grantedAt).Milliseconds()
		}
		if job := ls.shard.job(); job != nil {
			l.Trace = job.trace
		}
		st.Leases = append(st.Leases, l)
	}
	sort.Slice(st.Leases, func(a, b int) bool { return st.Leases[a].AgeMS > st.Leases[b].AgeMS })
	return st
}

// Timeline returns the assembled span timeline for a trace id (false
// for a trace the recorder has never seen or has evicted).
func (c *Coordinator) Timeline(traceID string) (obs.Timeline, bool) {
	return c.rec.Timeline(traceID)
}

// CoordHistograms snapshots the coordinator's orchestration-latency
// histograms for /metrics exposition.
type CoordHistograms struct {
	QueueWait obs.HistSnapshot // shard queue wait, seconds
	Service   obs.HistSnapshot // worker-reported shard service time, seconds
	PointSim  obs.HistSnapshot // per-point simulation time, seconds
	LeaseAge  obs.HistSnapshot // lease age at completion, seconds
}

// Histograms snapshots the latency histograms (their locks are
// independent of the queue mutex, so this never contends with the
// lease path).
func (c *Coordinator) Histograms() CoordHistograms {
	return CoordHistograms{
		QueueWait: c.queueWait.Snapshot(),
		Service:   c.service.Snapshot(),
		PointSim:  c.pointSim.Snapshot(),
		LeaseAge:  c.leaseAge.Snapshot(),
	}
}
