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

	// StateDir enables durable crash-resume (OpenCoordinator): a WAL
	// under this directory journals every queue transition, and a
	// restarted coordinator replays it to exactly the pre-crash queue.
	// Empty = memory-only.
	StateDir string

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
	// TraceCache is the worker process's trace cache as of its last
	// heartbeat (zero until the first).
	TraceCache TraceCache `json:"trace_cache"`
}

// TraceCache is a worker process's memoized traces, as
// workloads.TraceCacheStats counts them; workers send it on every
// heartbeat.
type TraceCache struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
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
	// JournalCompactions counts successful WAL rewrites.
	JournalCompactions uint64 `json:"journal_compactions"`
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
	// Leases lists in-flight leases, oldest first (ties in grant order).
	Leases []LeaseStatus `json:"leases,omitempty"`
	// JournalErr surfaces a sticky state-dir persistence failure: the
	// coordinator keeps serving (degraded to memory-only durability)
	// but the operator should know resume is compromised.
	JournalErr string `json:"journal_err,omitempty"`
	// JournalBytes is the WAL's size (0 on a memory-only coordinator).
	JournalBytes int64 `json:"journal_bytes,omitempty"`
}

// Coordinator owns the shared cache, the shard queue and the lease
// table. One Coordinator serves many concurrent Run calls (sweepd
// submissions) and many workers, local or remote.
type Coordinator struct {
	cfg   CoordConfig
	cache *Cache

	mu       sync.Mutex
	jobs     map[string]*fedJob // every submission, until its waiter collects it
	pending  []*fedShard        // FIFO; expiry requeues push to the front
	leases   map[string]*fedLease
	workers  map[string]*workerState
	seq      int
	closed   bool
	quit     chan struct{}
	counters CoordCounters

	// Durability (journal.go). jrn is nil on a memory-only
	// coordinator, where journal is a no-op; recovered lists what
	// OpenCoordinator replayed from the state dir.
	jrn       *journal
	recovered []RecoveredJob

	// Observability (DESIGN.md §4.9). rec assembles per-trace
	// timelines; the histograms aggregate orchestration latencies and
	// have their own locks (Observe never contends on c.mu). adopting
	// is set while recovery replays the log: it suppresses spans, which
	// the replayed span records already hold, and counter increments,
	// which count only this process's work.
	rec       *obs.Recorder
	queueWait *obs.Histogram // shard queue wait, seconds
	service   *obs.Histogram // worker-reported shard service time, seconds
	pointSim  *obs.Histogram // per-point simulation time, seconds
	leaseAge  *obs.Histogram // lease age at completion, seconds
	adopting  bool
}

type fedJob struct {
	res    *Results
	onProg func(Progress)
	doneCh chan struct{}

	// Every submission keeps its identity and full point list: shards
	// name their points as slots into it, and a compacted log is
	// self-contained.
	id     string
	label  string
	meta   json.RawMessage
	points []Point
	keys   []string

	// trace names the job's timeline in the recorder (minted at submit
	// if the caller supplied none; always set on live submissions).
	trace string
}

// fedShard is a shard as the journal records it — its unresolved
// slots in its job's point list and its lease grants so far — plus the
// job itself and when the shard (re)entered the pending queue: the
// next grant observes now-queuedAt as queue wait. queuedAt is zero on
// shards rebuilt by crash recovery (their wait is not observed).
type fedShard struct {
	shardRec
	job      *fedJob
	queuedAt time.Time
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
// coordinator the journal is compacted first — Close is the
// graceful-shutdown path, and a reopened coordinator resumes exactly
// this state.
func (c *Coordinator) Close() { c.shutdown(true) }

// shutdown detaches the journal, compacting it first if asked, then
// marks the coordinator closed and empties the queue and lease table,
// so no late CompleteShard or lease-strip can call finishLocked again
// — a waiter that returned ErrClosed never races a write to its job's
// results.
func (c *Coordinator) shutdown(compact bool) {
	c.mu.Lock()
	defer c.unlock()
	if c.closed {
		return
	}
	if c.jrn != nil {
		if compact {
			c.compactLocked()
		}
		c.jrn.fail(c.jrn.wal.Close())
	}
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
	submitAt := c.cfg.now()
	// Resolve keys off the lock (hashing is CPU work), then classify.
	keys, keyErrs := Keys(points)
	job := &fedJob{res: newResults(len(points)), onProg: onProgress, doneCh: make(chan struct{}),
		label: label, meta: meta, points: points, keys: keys}

	c.mu.Lock()
	if c.closed {
		c.unlock()
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
	c.seq++
	job.id = fmt.Sprintf("job-%d", c.seq)
	c.jobs[job.id] = job
	c.journal(recTypeJob, jobRecOf(job))
	resolved := make([]doneEntry, 0, len(keys))
	var missIdx []int
	for i, key := range keys {
		if err := keyErrs[i]; err != nil {
			resolved = append(resolved, doneEntry{Idx: i, Err: err.Error()})
		} else if r, ok := c.cache.Get(key); ok {
			resolved = append(resolved, doneEntry{Idx: i, Cached: true, Result: r})
		} else {
			missIdx = append(missIdx, i)
		}
	}
	c.resolveLocked(job, resolved, nil)
	classifiedAt := c.cfg.now()
	c.spanLocked(job, obs.Span{Name: "submit",
		StartNS: submitAt.UnixNano(), EndNS: classifiedAt.UnixNano(),
		Detail: fmt.Sprintf("%d points, %d cached", len(points), job.res.Stats.CacheHits)})
	if len(missIdx) > 0 {
		plan := c.planLocked(job, missIdx)
		c.journal(recTypePlan, plan)
		plannedAt := c.cfg.now()
		c.spanLocked(job, obs.Span{Name: "plan",
			StartNS: classifiedAt.UnixNano(), EndNS: plannedAt.UnixNano(),
			Detail: fmt.Sprintf("%d shards for %d misses", len(plan.Shards), len(missIdx))})
		for _, sh := range c.pending[len(c.pending)-len(plan.Shards):] {
			sh.queuedAt = plannedAt
			c.spanLocked(job, obs.Span{Name: "shard", Ref: sh.ID,
				StartNS: plannedAt.UnixNano(), EndNS: plannedAt.UnixNano(),
				Detail: fmt.Sprintf("%d points", len(sh.Idx))})
		}
	}
	c.unlock()

	return c.wait(job)
}

// planLocked splits the job's slots into cost-balanced shards, at
// least one per registered worker, queues them and returns their plan.
func (c *Coordinator) planLocked(job *fedJob, slots []int) (plan walRec) {
	pts := make([]Point, len(slots))
	for j, i := range slots {
		pts[j] = job.points[i]
	}
	planner := c.cfg.Planner
	if n := len(c.workers); n > planner.MinShards {
		planner.MinShards = n
	}
	for _, group := range planner.Plan(pts) {
		c.seq++
		sh := &fedShard{job: job, shardRec: shardRec{
			ID: fmt.Sprintf("sh-%d", c.seq), Job: job.id, Idx: make([]int, len(group))}}
		for n, j := range group {
			sh.Idx[n] = slots[j]
		}
		c.pending = append(c.pending, sh)
		plan.Shards = append(plan.Shards, sh.shardRec)
	}
	return plan
}

// spanLocked records one span on the job's timeline and journals it so
// timelines survive crash-resume. Callers hold c.mu. No-op while
// recovery replays (adopting) — the restored timeline already holds
// history — and on jobs with no trace.
func (c *Coordinator) spanLocked(job *fedJob, s obs.Span) {
	if job.trace == "" || c.adopting {
		return
	}
	c.rec.Record(job.trace, s)
	c.journal(recTypeSpan, walRec{Trace: job.trace, Label: job.label, Spans: []obs.Span{s}})
}

// wait blocks until the job completes or the coordinator closes. The
// done channel is always preferred over the quit channel: a job whose
// last point resolved in the same instant the coordinator shut down
// returns its finished Results, never a spurious ErrClosed.
func (c *Coordinator) wait(job *fedJob) (*Results, error) {
	c.mu.Lock()
	done := job.res.Stats.done() == job.res.Stats.Points
	c.unlock()

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
				c.unlock()
			}
		}
	}

	c.mu.Lock()
	if !c.closed {
		c.journal(recTypeJobDone, walRec{Job: job.id})
		delete(c.jobs, job.id)
	}
	c.unlock()

	if err := c.cache.Save(); err != nil {
		job.res.SaveErr = err.Error()
	}
	return job.res, nil
}

// resolveLocked is the one path by which points resolve: submit-time
// hits and key errors, lease-time strips, verified completions,
// abandonments and replayed done records all come through it. It
// drops entries whose slot is already resolved (the first outcome
// stands; entries is filtered in place) or that carry no result and no
// error (replayed ones the store lost), puts each successful result in
// the cache, records each outcome through finishLocked, and journals
// the rest as one done record. settled, if non-nil, runs between the
// outcomes and the record, so the spans it records precede the record.
func (c *Coordinator) resolveLocked(job *fedJob, entries []doneEntry, settled func()) {
	fresh := entries[:0]
	for _, e := range entries {
		if job.res.Outcomes[e.Idx] != nil || (e.Err == "" && e.Result == nil) {
			continue
		}
		key := job.keys[e.Idx]
		if e.Err == "" {
			c.cache.Put(key, e.Result)
		}
		c.finishLocked(job, e.Idx, &Outcome{Point: job.points[e.Idx], Key: key,
			Cached: e.Cached, Err: e.Err, Result: e.Result})
		fresh = append(fresh, e)
	}
	if settled != nil {
		settled()
	}
	if len(fresh) > 0 {
		c.journal(recTypeDone, walRec{Job: job.id, Entries: fresh})
	}
}

// finishLocked records one resolved point and publishes progress.
// Callers hold c.mu, so progress callbacks are serialized with
// strictly increasing Done counts (the Engine.Run contract).
func (c *Coordinator) finishLocked(job *fedJob, idx int, o *Outcome) {
	p := job.res.record(idx, o)
	if !c.adopting {
		c.counters.PointsDone++
		switch {
		case o.Cached:
			c.counters.PointsCached++
		case o.Err != "":
			c.counters.PointsFailed++
		default:
			c.counters.PointsSimulated++
		}
	}
	if job.onProg != nil {
		job.onProg(p)
	}
	if p.Done == p.Total {
		if !c.adopting {
			c.counters.JobsDone++
		}
		now := c.cfg.now().UnixNano()
		st := job.res.Stats
		c.spanLocked(job, obs.Span{Name: "done", StartNS: now, EndNS: now,
			Detail: fmt.Sprintf("%d points: %d simulated, %d cached, %d failed",
				st.Points, st.Simulated, st.CacheHits, st.Errors)})
		close(job.doneCh)
	}
}

// reapLocked expires overdue leases: each one's shard is requeued at
// the front (another worker picks it up next) until MaxAttempts lease
// grants have been burned, after which the shard's points fail with an
// error outcome. Leases expiring together are burned in grant order,
// not map order, so the queue, the journal and the spans they leave
// are the same on every run: the last granted leads the queue, as
// replaying the burn records rebuilds it.
func (c *Coordinator) reapLocked(now time.Time) {
	var expired []*fedLease
	for _, ls := range c.leases {
		if !now.Before(ls.deadline) {
			expired = append(expired, ls)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return idSeq(expired[i].id) < idSeq(expired[j].id) })
	for _, ls := range expired {
		c.counters.LeaseExpiries++
		if w := c.burnLocked(ls); w != nil {
			w.Expiries++
		}
		c.spanLocked(ls.shard.job, obs.Span{Name: "expire", Ref: ls.shard.ID,
			Worker: ls.workerID, StartNS: now.UnixNano(), EndNS: now.UnixNano(),
			Detail: fmt.Sprintf("lease %s ttl elapsed", ls.id)})
		c.abandonOrRequeueLocked(ls.shard, now)
	}
	for id, w := range c.workers {
		if w.ActiveLeases == 0 && now.Sub(w.LastSeen) > c.workerExpiry() {
			delete(c.workers, id)
		}
	}
}

// burnLocked ends a lease — expired, rejected or completed: it leaves
// the table, the journal records the burn, and its worker (returned,
// nil if it aged out) holds one lease fewer.
func (c *Coordinator) burnLocked(ls *fedLease) *workerState {
	delete(c.leases, ls.id)
	c.journal(recTypeBurn, walRec{ID: ls.id})
	w := c.workers[ls.workerID]
	if w != nil {
		w.ActiveLeases--
	}
	return w
}

// workerExpiry is how long a silent, lease-free worker stays in the
// registry. Workers heartbeat while idle and touch LastSeen on every
// lease call, so only the genuinely departed age out — keeping the
// registry (and the MinShards worker count it feeds) honest on a
// long-lived coordinator.
func (c *Coordinator) workerExpiry() time.Duration {
	return 10 * c.cfg.LeaseTTL
}

// abandonOrRequeueLocked gives the shard of a burned lease (expired or
// rejected) back to the queue, or fails its points once MaxAttempts
// lease grants have been burned.
func (c *Coordinator) abandonOrRequeueLocked(sh *fedShard, now time.Time) {
	if sh.Attempt >= c.cfg.MaxAttempts {
		c.counters.ShardsAbandoned++
		msg := fmt.Sprintf("sweep: shard %s abandoned after %d burned leases", sh.ID, sh.Attempt)
		c.spanLocked(sh.job, obs.Span{Name: "abandon", Ref: sh.ID,
			StartNS: now.UnixNano(), EndNS: now.UnixNano(),
			Detail: fmt.Sprintf("%d burned leases", sh.Attempt)})
		failed := make([]doneEntry, len(sh.Idx))
		for n, i := range sh.Idx {
			failed[n] = doneEntry{Idx: i, Err: msg}
		}
		c.resolveLocked(sh.job, failed, nil)
		return
	}
	c.counters.ShardsRequeued++
	sh.queuedAt = now
	c.spanLocked(sh.job, obs.Span{Name: "requeue", Ref: sh.ID,
		StartNS: now.UnixNano(), EndNS: now.UnixNano(),
		Detail: fmt.Sprintf("attempt %d of %d", sh.Attempt, c.cfg.MaxAttempts)})
	c.pending = append([]*fedShard{sh}, c.pending...)
}

// RegisterWorker adds a worker to the registry and names it.
func (c *Coordinator) RegisterWorker(name string) (RegisterReply, error) {
	c.mu.Lock()
	defer c.unlock()
	c.seq++
	id := fmt.Sprintf("wk-%d", c.seq)
	if name == "" {
		name = id
	}
	c.workers[id] = &workerState{WorkerStatus: WorkerStatus{ID: id, Name: name, LastSeen: c.cfg.now()}}
	return RegisterReply{WorkerID: id, LeaseTTL: c.cfg.LeaseTTL}, nil
}

// HeartbeatWorker refreshes a worker's liveness timestamp and records
// its process's trace cache.
func (c *Coordinator) HeartbeatWorker(workerID string, traces TraceCache) error {
	c.mu.Lock()
	defer c.unlock()
	w := c.workers[workerID]
	if w == nil {
		return ErrUnknownWorker
	}
	w.LastSeen = c.cfg.now()
	w.TraceCache = traces
	return nil
}

// LeaseShard hands the requesting worker the next pending shard, or
// nil when the queue is empty. Points that landed in the shared cache
// since planning (another job finished them) are stripped from the
// lease and served as cache hits on the spot — the queue never makes a
// worker resimulate a known result.
func (c *Coordinator) LeaseShard(workerID string) (*LeaseGrant, error) {
	c.mu.Lock()
	defer c.unlock()
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

		var hits []doneEntry
		kept := sh.Idx[:0]
		for _, i := range sh.Idx {
			if r, ok := c.cache.Get(sh.job.keys[i]); ok {
				hits = append(hits, doneEntry{Idx: i, Cached: true, Result: r})
			} else {
				kept = append(kept, i)
			}
		}
		sh.Idx = kept
		c.resolveLocked(sh.job, hits, nil)
		if len(sh.Idx) == 0 {
			// The whole shard was satisfied by results a sibling job put
			// in the shared cache since planning. That still completes the
			// shard — the timeline must say so, or a shard span would dangle
			// with no matching complete.
			c.spanLocked(sh.job, obs.Span{Name: "complete", Ref: sh.ID,
				StartNS: now.UnixNano(), EndNS: now.UnixNano(),
				Detail: "served from shared cache"})
			continue
		}

		sh.Attempt++
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
		c.journal(recTypeLease, leaseRecOf(ls))
		w.ActiveLeases++
		wait := time.Duration(0)
		if !sh.queuedAt.IsZero() {
			wait = now.Sub(sh.queuedAt)
			c.queueWait.Observe(wait.Seconds())
		}
		c.spanLocked(sh.job, obs.Span{Name: "lease", Ref: sh.ID, Worker: workerID,
			StartNS: now.UnixNano(), EndNS: now.UnixNano(),
			Detail: fmt.Sprintf("lease %s attempt %d, %d points, queued %dms",
				ls.id, sh.Attempt, len(sh.Idx), wait.Milliseconds())})
		grant := &LeaseGrant{
			LeaseID: ls.id, ShardID: sh.ID, Attempt: sh.Attempt, TTL: c.cfg.LeaseTTL,
			TraceID: sh.job.trace, Items: make([]WorkItem, len(sh.Idx)),
		}
		for n, i := range sh.Idx {
			grant.Items[n] = WorkItem{Point: sh.job.points[i], Key: sh.job.keys[i]}
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
	defer c.unlock()
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
	c.journal(recTypeRenew, walRec{ID: ls.id, Deadline: ls.deadline.UnixMilli()})
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
	defer c.unlock()
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
	sh, job := ls.shard, ls.shard.job

	outcomes, err := verifyOutcomes(job, sh.Idx, req.Outcomes)
	if err != nil {
		// Burn this lease and requeue at the front so a healthy worker
		// retries without waiting out the TTL — under the same
		// MaxAttempts budget as expiry, so a worker that persistently
		// reports garbage cannot cycle the shard forever.
		c.counters.CompletionsRejected++
		c.burnLocked(ls)
		c.spanLocked(job, obs.Span{Name: "reject", Ref: sh.ID, Worker: ls.workerID,
			StartNS: now.UnixNano(), EndNS: now.UnixNano(), Detail: err.Error()})
		c.abandonOrRequeueLocked(sh, now)
		return err
	}

	c.counters.ShardsCompleted++
	// In the journal a completion is a burn (the lease is gone, the
	// shard notionally requeued) followed by its outcomes resolving —
	// which empties the shard out of the queue again on replay.
	w := c.burnLocked(ls)
	// Adopt the worker's piggybacked spans onto the job's timeline,
	// stamped with the lease's worker id (the lease, not the payload,
	// is the authority on who ran the shard). The w:simulate span also
	// feeds the service-time histogram and the worker's points/s EWMA.
	var simSec float64
	for _, ws := range req.Spans {
		ws.Worker = ls.workerID
		if ws.Ref == "" {
			ws.Ref = sh.ID
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
	if w != nil {
		w.ShardsDone++
		w.PointsDone += len(sh.Idx)
		if simSec > 0 {
			w.rate.Observe(float64(len(sh.Idx)) / simSec)
			w.PointsPerSec = w.rate.Value()
		}
	}
	if !ls.grantedAt.IsZero() {
		age := now.Sub(ls.grantedAt)
		c.leaseAge.Observe(age.Seconds())
		c.spanLocked(job, obs.Span{Name: "run", Ref: sh.ID, Worker: ls.workerID,
			StartNS: ls.grantedAt.UnixNano(), EndNS: now.UnixNano(),
			Detail: fmt.Sprintf("lease %s", ls.id)})
	}
	putStart := c.cfg.now()
	c.resolveLocked(job, outcomes, func() {
		putEnd := c.cfg.now()
		c.spanLocked(job, obs.Span{Name: "cacheput", Ref: sh.ID,
			StartNS: putStart.UnixNano(), EndNS: putEnd.UnixNano(),
			Detail: "shared-cache write-back"})
		c.spanLocked(job, obs.Span{Name: "complete", Ref: sh.ID, Worker: ls.workerID,
			StartNS: putEnd.UnixNano(), EndNS: putEnd.UnixNano(),
			Detail: fmt.Sprintf("%d points", len(sh.Idx))})
	})
	return nil
}

// verifyOutcomes checks a completion against the leased slots of its
// job and returns its outcomes as done entries.
func verifyOutcomes(job *fedJob, slots []int, outs []WireOutcome) ([]doneEntry, error) {
	if len(outs) != len(slots) {
		return nil, fmt.Errorf("%w: %d outcomes for %d leased points", ErrBadPayload, len(outs), len(slots))
	}
	entries := make([]doneEntry, len(slots))
	for n, o := range outs {
		if want := job.keys[slots[n]]; o.Key != want {
			return nil, fmt.Errorf("%w: outcome %d key %.12s… does not match planned key %.12s…",
				ErrBadPayload, n, o.Key, want)
		}
		if (o.Err == "") == (o.Result == nil) {
			return nil, fmt.Errorf("%w: outcome %d must carry exactly one of result or error", ErrBadPayload, n)
		}
		entries[n] = doneEntry{Idx: slots[n], Err: o.Err, Result: o.Result}
	}
	return entries, nil
}

// Counters snapshots the coordinator's lifetime totals.
func (c *Coordinator) Counters() CoordCounters {
	c.mu.Lock()
	defer c.unlock()
	return c.counters
}

// Status snapshots the queue and worker registry.
func (c *Coordinator) Status() FederationStatus {
	c.mu.Lock()
	defer c.unlock()
	c.reapLocked(c.cfg.now())
	st := FederationStatus{
		PendingShards: len(c.pending),
		ActiveLeases:  len(c.leases),
	}
	if c.jrn != nil {
		st.JournalBytes = c.jrn.wal.Size()
		if c.jrn.err != nil {
			st.JournalErr = c.jrn.err.Error()
		}
	}
	for _, sh := range c.pending {
		st.PendingPoints += len(sh.Idx)
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, w.WorkerStatus)
	}
	sort.Slice(st.Workers, func(a, b int) bool { return idSeq(st.Workers[a].ID) < idSeq(st.Workers[b].ID) })
	now := c.cfg.now()
	for _, ls := range c.leases {
		l := LeaseStatus{ID: ls.id, Shard: ls.shard.ID, Worker: ls.workerID,
			Attempt: ls.shard.Attempt, Points: len(ls.shard.Idx),
			LeftMS: ls.deadline.Sub(now).Milliseconds(), Trace: ls.shard.job.trace}
		if !ls.grantedAt.IsZero() {
			l.AgeMS = now.Sub(ls.grantedAt).Milliseconds()
		}
		st.Leases = append(st.Leases, l)
	}
	sort.Slice(st.Leases, func(a, b int) bool {
		la, lb := st.Leases[a], st.Leases[b]
		if la.AgeMS != lb.AgeMS {
			return la.AgeMS > lb.AgeMS
		}
		return idSeq(la.ID) < idSeq(lb.ID) // granted together: grant order
	})
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
