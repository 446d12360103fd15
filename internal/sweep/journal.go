package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"earlyrelease/internal/obs"
	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/sweep/durable"
)

// This file is the coordinator's durability schema on top of the
// internal/sweep/durable primitives (DESIGN.md §4.3 "Durability"). The
// WAL records every queue transition — job submission, shard plan,
// resolved outcomes, lease grant/renewal/burn, job completion — and a
// periodic snapshot compacts the log. Recovery is snapshot state plus
// WAL replay, and reconstructs exactly the pre-crash queue: pending
// shards in order, in-flight leases with their absolute deadlines and
// attempt counts, and every resolved outcome (results included, so the
// shared cache is rebuilt even if its store never got synced).
//
// Two deliberate non-goals: the worker registry is not persisted
// (workers re-register through the existing ErrUnknownWorker path when
// their coordinator restarts), and unlabeled jobs — explorer evaluation
// rounds submitted through RunPoints — are dropped at recovery, because
// a restarted exploration re-derives them deterministically against the
// recovered warm cache.

// WAL record types.
const (
	recTypeJob     byte = 1 // a labeled or anonymous submission: points + keys
	recTypePlan    byte = 2 // the shards a submission was planned into
	recTypeDone    byte = 3 // resolved outcomes (hits, completions, failures)
	recTypeLease   byte = 4 // a lease grant: shard leaves the queue
	recTypeRenew   byte = 5 // a lease deadline extension
	recTypeBurn    byte = 6 // a lease died (expiry/rejection): shard requeues at the front
	recTypeJobDone byte = 7 // a job's waiter collected its results
	recTypeSpan    byte = 8 // trace spans appended to a journaled job's timeline
)

type jobRec struct {
	ID     string          `json:"id"`
	Label  string          `json:"label,omitempty"`
	Trace  string          `json:"trace,omitempty"`
	Meta   json.RawMessage `json:"meta,omitempty"`
	Points []Point         `json:"points"`
	Keys   []string        `json:"keys"`
}

// spanRec appends spans to a trace's timeline. Spans are telemetry,
// not queue state: they are journaled without fsync and replayed into
// the recorder only.
type spanRec struct {
	Trace string     `json:"trace"`
	Label string     `json:"label,omitempty"`
	Spans []obs.Span `json:"spans"`
}

// shardRec names a shard's units as slots into its job's point list.
type shardRec struct {
	ID      string `json:"id"`
	Job     string `json:"job"`
	Idx     []int  `json:"idx"`
	Attempt int    `json:"attempt,omitempty"`
}

type planRec struct {
	Shards []shardRec `json:"shards"`
}

// doneEntry is one resolved point. The result rides in the record even
// when the cache also holds it: replay must be able to rebuild both
// the job's outcomes and the cache without any other file surviving.
type doneEntry struct {
	Idx    int              `json:"idx"`
	Cached bool             `json:"cached,omitempty"`
	Err    string           `json:"err,omitempty"`
	Result *pipeline.Result `json:"result,omitempty"`
}

type doneRec struct {
	Job     string      `json:"job"`
	Entries []doneEntry `json:"entries"`
}

type leaseRec struct {
	ID       string `json:"id"`
	Worker   string `json:"worker"`
	Shard    string `json:"shard"`
	Attempt  int    `json:"attempt"`
	Deadline int64  `json:"deadline_ms"` // absolute, unix milliseconds
}

type renewRec struct {
	ID       string `json:"id"`
	Deadline int64  `json:"deadline_ms"`
}

type burnRec struct {
	ID string `json:"id"`
}

type jobDoneRec struct {
	Job string `json:"job"`
}

// snapState is the snapshot schema: the full queue at a point in time.
// The WAL is replayed on top of it.
type snapState struct {
	Seq     int          `json:"seq"`
	Jobs    []jobState   `json:"jobs"`
	Pending []shardRec   `json:"pending"` // queue order
	Leases  []leaseState `json:"leases"`
	// Traces carries the recorder's timelines so crash-resume keeps
	// already-recorded spans (bounded by the recorder's retention).
	Traces []obs.Timeline `json:"traces,omitempty"`
}

type jobState struct {
	jobRec
	Done []doneEntry `json:"done,omitempty"`
}

type leaseState struct {
	ID       string   `json:"id"`
	Worker   string   `json:"worker"`
	Deadline int64    `json:"deadline_ms"`
	Shard    shardRec `json:"shard"`
}

// journal owns the coordinator's WAL + snapshot pair. All methods are
// called under the coordinator's mutex. Append failures are sticky and
// reported in FederationStatus rather than failing the live queue: a
// coordinator that cannot persist keeps serving (degraded to
// memory-only) instead of dropping work on the floor.
type journal struct {
	wal     *durable.WAL
	dir     string
	every   int // appends between automatic compactions
	appends int
	err     error
}

func (j *journal) snapPath() string { return filepath.Join(j.dir, "snapshot.json") }

func (j *journal) fail(err error) {
	if j.err == nil && err != nil {
		j.err = err
	}
}

// append journals one record, fsyncing the data-bearing types (jobs
// and outcomes must survive a machine crash once acknowledged; a lost
// lease or plan record only costs re-simulation time, never results).
func (c *Coordinator) journal(typ byte, v any) {
	j := c.jrn
	if j == nil {
		return
	}
	sync := typ == recTypeJob || typ == recTypeDone
	j.fail(j.wal.AppendJSON(typ, v, sync))
	j.appends++
	if j.appends >= j.every {
		c.snapshotLocked()
	}
}

// snapshotLocked compacts: the live queue becomes the snapshot and the
// WAL restarts empty. Called under c.mu.
func (c *Coordinator) snapshotLocked() {
	j := c.jrn
	if j == nil {
		return
	}
	if err := durable.WriteSnapshot(j.snapPath(), c.snapStateLocked()); err != nil {
		j.fail(err)
		return
	}
	j.fail(j.wal.Reset())
	j.appends = 0
}

// Snapshot forces a compaction (graceful shutdown calls this through
// Close; tests call it directly). No-op on a memory-only coordinator.
func (c *Coordinator) Snapshot() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.snapshotLocked()
	}
}

// snapStateLocked serializes the queue. Shards and leases always
// belong to journaled jobs (jobs leave c.jobs only after their shards
// are gone), so every reference resolves at load.
func (c *Coordinator) snapStateLocked() snapState {
	st := snapState{Seq: c.seq}
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return idSeq(ids[a]) < idSeq(ids[b]) })
	for _, id := range ids {
		job := c.jobs[id]
		js := jobState{jobRec: jobRec{ID: job.id, Label: job.label, Meta: job.meta,
			Points: job.points, Keys: job.keys}}
		for idx, o := range job.res.Outcomes {
			if o != nil {
				js.Done = append(js.Done, doneEntry{Idx: idx, Cached: o.Cached, Err: o.Err, Result: o.Result})
			}
		}
		st.Jobs = append(st.Jobs, js)
	}
	for _, sh := range c.pending {
		st.Pending = append(st.Pending, shardState(sh))
	}
	lids := make([]string, 0, len(c.leases))
	for id := range c.leases {
		lids = append(lids, id)
	}
	sort.Slice(lids, func(a, b int) bool { return idSeq(lids[a]) < idSeq(lids[b]) })
	for _, id := range lids {
		ls := c.leases[id]
		st.Leases = append(st.Leases, leaseState{ID: ls.id, Worker: ls.workerID,
			Deadline: ls.deadline.UnixMilli(), Shard: shardState(ls.shard)})
	}
	st.Traces = c.rec.Dump()
	return st
}

func shardState(sh *fedShard) shardRec {
	r := shardRec{ID: sh.id, Attempt: sh.attempt}
	if len(sh.units) > 0 {
		r.Job = sh.units[0].job.id
	}
	for _, u := range sh.units {
		r.Idx = append(r.Idx, u.jobIdx)
	}
	return r
}

// idSeq extracts the numeric suffix of an id like "sh-12" (0 if none);
// recovery seeds the sequence counter above every replayed id.
func idSeq(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, _ := strconv.Atoi(id[i+1:])
	return n
}

// --- replay --------------------------------------------------------------

// replayState is the mutable queue model recovery builds: snapshot
// load, then WAL application, then adoption into a live Coordinator.
type replayState struct {
	seq     int
	jobs    map[string]*rjob
	shards  map[string]*rshard
	pending []*rshard
	leases  map[string]*rlease
	order   []string // job ids in first-seen order

	// traces accumulates snapshot timelines plus WAL span records, in
	// first-seen order, for adoption into the recorder.
	traces     map[string]*obs.Timeline
	traceOrder []string
}

type rjob struct {
	id, label string
	trace     string
	meta      json.RawMessage
	points    []Point
	keys      []string
	done      map[int]doneEntry
}

type rshard struct {
	id, job string
	idx     []int
	attempt int
	leased  bool
}

type rlease struct {
	id, worker string
	shard      *rshard
	deadline   time.Time
}

func newReplayState() *replayState {
	return &replayState{
		jobs:   map[string]*rjob{},
		shards: map[string]*rshard{},
		leases: map[string]*rlease{},
		traces: map[string]*obs.Timeline{},
	}
}

// addSpans folds spans into a replayed trace (creating it on first
// sight, as both snapshot timelines and WAL span records do).
func (st *replayState) addSpans(trace, label string, dropped int, spans []obs.Span) {
	if trace == "" {
		return
	}
	t, ok := st.traces[trace]
	if !ok {
		t = &obs.Timeline{TraceID: trace}
		st.traces[trace] = t
		st.traceOrder = append(st.traceOrder, trace)
	}
	if label != "" {
		t.Label = label
	}
	t.Dropped += dropped
	t.Spans = append(t.Spans, spans...)
}

func (st *replayState) bump(id string) {
	if n := idSeq(id); n > st.seq {
		st.seq = n
	}
}

func (st *replayState) addJob(r jobRec, done []doneEntry) {
	j := &rjob{id: r.ID, label: r.Label, trace: r.Trace, meta: r.Meta,
		points: r.Points, keys: r.Keys, done: map[int]doneEntry{}}
	for _, e := range done {
		j.done[e.Idx] = e
	}
	st.jobs[j.id] = j
	st.order = append(st.order, j.id)
	st.bump(j.id)
}

func (st *replayState) addShard(r shardRec, leased bool) *rshard {
	sh := &rshard{id: r.ID, job: r.Job, idx: append([]int(nil), r.Idx...),
		attempt: r.Attempt, leased: leased}
	st.shards[sh.id] = sh
	st.bump(sh.id)
	return sh
}

// load seeds the state from a snapshot.
func (st *replayState) load(snap snapState) {
	if snap.Seq > st.seq {
		st.seq = snap.Seq
	}
	for _, js := range snap.Jobs {
		st.addJob(js.jobRec, js.Done)
	}
	for _, sr := range snap.Pending {
		st.pending = append(st.pending, st.addShard(sr, false))
	}
	for _, ls := range snap.Leases {
		sh := st.addShard(ls.Shard, true)
		st.leases[ls.ID] = &rlease{id: ls.ID, worker: ls.Worker, shard: sh,
			deadline: time.UnixMilli(ls.Deadline)}
		st.bump(ls.ID)
	}
	for _, t := range snap.Traces {
		st.addSpans(t.TraceID, t.Label, t.Dropped, t.Spans)
	}
}

// apply replays one WAL record. Decode failures abort recovery (the
// durable layer already dropped torn tails, so an undecodable record
// means a schema bug, not crash damage); references that no longer
// resolve — a renew for a lease a later snapshot dropped — are skipped,
// mirroring how the live coordinator treats stale ids.
func (st *replayState) apply(rec durable.Record) error {
	switch rec.Type {
	case recTypeJob:
		var r jobRec
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("sweep: replay job record: %w", err)
		}
		st.addJob(r, nil)
	case recTypePlan:
		var r planRec
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("sweep: replay plan record: %w", err)
		}
		for _, sr := range r.Shards {
			st.pending = append(st.pending, st.addShard(sr, false))
		}
	case recTypeDone:
		var r doneRec
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("sweep: replay done record: %w", err)
		}
		st.resolve(r)
	case recTypeLease:
		var r leaseRec
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("sweep: replay lease record: %w", err)
		}
		sh := st.shards[r.Shard]
		if sh == nil || sh.leased {
			return nil
		}
		st.unqueue(sh)
		sh.leased = true
		sh.attempt = r.Attempt
		st.leases[r.ID] = &rlease{id: r.ID, worker: r.Worker, shard: sh,
			deadline: time.UnixMilli(r.Deadline)}
		st.bump(r.ID)
	case recTypeRenew:
		var r renewRec
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("sweep: replay renew record: %w", err)
		}
		if ls := st.leases[r.ID]; ls != nil {
			ls.deadline = time.UnixMilli(r.Deadline)
		}
	case recTypeBurn:
		var r burnRec
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("sweep: replay burn record: %w", err)
		}
		if ls := st.leases[r.ID]; ls != nil {
			delete(st.leases, r.ID)
			ls.shard.leased = false
			st.pending = append([]*rshard{ls.shard}, st.pending...)
		}
	case recTypeJobDone:
		var r jobDoneRec
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("sweep: replay job-done record: %w", err)
		}
		st.dropJob(r.Job)
	case recTypeSpan:
		var r spanRec
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("sweep: replay span record: %w", err)
		}
		st.addSpans(r.Trace, r.Label, 0, r.Spans)
	default:
		return fmt.Errorf("sweep: replay: unknown wal record type %d", rec.Type)
	}
	return nil
}

// resolve applies resolved outcomes: the job records them and any
// shard still carrying the unit gives it up (a shard with nothing left
// leaves the queue, exactly like the live strip path).
func (st *replayState) resolve(r doneRec) {
	j := st.jobs[r.Job]
	if j == nil {
		return
	}
	for _, e := range r.Entries {
		j.done[e.Idx] = e
		for _, sh := range st.shards {
			if sh.job != r.Job {
				continue
			}
			for k, idx := range sh.idx {
				if idx == e.Idx {
					sh.idx = append(sh.idx[:k], sh.idx[k+1:]...)
					break
				}
			}
			if len(sh.idx) == 0 && !sh.leased {
				st.unqueue(sh)
				delete(st.shards, sh.id)
			}
		}
	}
}

func (st *replayState) unqueue(sh *rshard) {
	for i, p := range st.pending {
		if p == sh {
			st.pending = append(st.pending[:i], st.pending[i+1:]...)
			return
		}
	}
}

func (st *replayState) dropJob(id string) {
	delete(st.jobs, id)
	for sid, sh := range st.shards {
		if sh.job == id {
			st.unqueue(sh)
			delete(st.shards, sid)
		}
	}
	for lid, ls := range st.leases {
		if ls.shard.job == id {
			delete(st.leases, lid)
		}
	}
}

// --- recovery into a live coordinator ------------------------------------

// RecoveredJob summarizes one labeled job found in the state dir at
// OpenCoordinator time. The server resurfaces these under their
// original ids and resumes them with ResumeRecovered.
type RecoveredJob struct {
	Label string          `json:"label"`
	Trace string          `json:"trace,omitempty"`
	Meta  json.RawMessage `json:"meta,omitempty"`
	Total int             `json:"total"`
	Done  int             `json:"done"`
}

// OpenCoordinator is NewCoordinator plus durability: with
// cfg.StateDir set, prior state is replayed (snapshot, then WAL, torn
// tail tolerated) and every queue transition from here on is journaled.
// With an empty StateDir it is exactly NewCoordinator.
func OpenCoordinator(cache *Cache, cfg CoordConfig) (*Coordinator, error) {
	c := NewCoordinator(cache, cfg)
	if cfg.StateDir == "" {
		return c, nil
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: state dir: %w", err)
	}
	every := cfg.SnapshotEvery
	if every <= 0 {
		every = 256
	}
	j := &journal{dir: cfg.StateDir, every: every}

	st := newReplayState()
	var snap snapState
	if ok, err := durable.ReadSnapshot(j.snapPath(), &snap); err != nil {
		return nil, err
	} else if ok {
		st.load(snap)
	}
	wal, recs, err := durable.OpenWAL(filepath.Join(cfg.StateDir, "wal.log"))
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if err := st.apply(rec); err != nil {
			wal.Close()
			return nil, err
		}
	}
	j.wal = wal
	c.jrn = j
	c.adopt(st)
	// Compact immediately: recovery becomes the new snapshot (dropped
	// anonymous jobs disappear for good) and the WAL restarts empty.
	c.mu.Lock()
	c.snapshotLocked()
	c.mu.Unlock()
	return c, nil
}

// adopt installs replayed state into a freshly built coordinator.
// Anonymous jobs (explorer rounds) are dropped — their completed
// results stay in the cache, and a restarted exploration re-derives
// the round deterministically. Completed outcomes re-enter the shared
// cache here, so recovery never depends on the cache store having been
// synced before the crash.
func (c *Coordinator) adopt(st *replayState) {
	c.seq = st.seq
	// Replayed timelines land in the recorder verbatim; adopting
	// suppresses the finishLocked span emission below so recovery does
	// not double-record what the journal already holds.
	c.adopting = true
	defer func() { c.adopting = false }()
	for _, id := range st.traceOrder {
		c.rec.Load(*st.traces[id])
	}
	kept := map[string]*fedJob{}
	for _, id := range st.order {
		rj := st.jobs[id]
		if rj == nil {
			continue // finished and dropped during replay
		}
		for idx, e := range rj.done {
			if e.Err == "" && e.Result != nil && rj.keys[idx] != "" {
				c.cache.Put(rj.keys[idx], e.Result)
			}
		}
		if rj.label == "" {
			continue
		}
		job := &fedJob{
			id: rj.id, label: rj.label, trace: rj.trace, meta: rj.meta,
			points: rj.points, keys: rj.keys,
			res:    newResults(len(rj.points)),
			doneCh: make(chan struct{}),
		}
		idxs := make([]int, 0, len(rj.done))
		for idx := range rj.done {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			e := rj.done[idx]
			c.finishLocked(job, idx, &Outcome{Point: rj.points[idx], Key: rj.keys[idx],
				Cached: e.Cached, Err: e.Err, Result: e.Result})
		}
		kept[job.id] = job
		c.jobs[job.id] = job
		c.recovered = append(c.recovered, RecoveredJob{Label: job.label, Trace: job.trace,
			Meta: job.meta, Total: job.res.Stats.Points, Done: job.res.Stats.done()})
	}
	mkShard := func(rs *rshard) *fedShard {
		job := kept[rs.job]
		if job == nil {
			return nil
		}
		sh := &fedShard{id: rs.id, attempt: rs.attempt}
		for _, idx := range rs.idx {
			sh.units = append(sh.units, workUnit{
				item:   WorkItem{Point: job.points[idx], Key: job.keys[idx]},
				jobIdx: idx, job: job})
		}
		return sh
	}
	for _, rs := range st.pending {
		if sh := mkShard(rs); sh != nil {
			c.pending = append(c.pending, sh)
		}
	}
	lids := make([]string, 0, len(st.leases))
	for id := range st.leases {
		lids = append(lids, id)
	}
	sort.Slice(lids, func(a, b int) bool { return idSeq(lids[a]) < idSeq(lids[b]) })
	for _, id := range lids {
		rl := st.leases[id]
		if sh := mkShard(rl.shard); sh != nil {
			c.leases[rl.id] = &fedLease{id: rl.id, workerID: rl.worker,
				shard: sh, deadline: rl.deadline}
		}
	}
}

// Recovered lists the labeled jobs replayed from the state dir, in
// submission order. Jobs still incomplete must be resumed with
// ResumeRecovered to keep making progress.
func (c *Coordinator) Recovered() []RecoveredJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RecoveredJob(nil), c.recovered...)
}

// ResumeRecovered attaches to a recovered job and blocks until it
// completes, exactly like the Run call the crash interrupted: the
// Results carry every pre-crash outcome as originally resolved (cache
// hits stay cache hits, simulated stays simulated) plus whatever the
// fleet finishes now — byte-identical to an uninterrupted run.
func (c *Coordinator) ResumeRecovered(label string, onProgress func(Progress)) (*Results, error) {
	c.mu.Lock()
	var job *fedJob
	for _, j := range c.jobs {
		if j.label == label {
			job = j
			break
		}
	}
	if job == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("sweep: no recovered job %q", label)
	}
	job.onProg = onProgress
	c.mu.Unlock()
	return c.wait(job)
}

// Halt detaches the coordinator from its state dir without the
// graceful-shutdown snapshot — the crash-simulation hook the resume
// tests use: whatever the WAL and last snapshot already hold is
// exactly what a hard kill would leave behind. Waiters get ErrClosed,
// workers see a closed coordinator.
func (c *Coordinator) Halt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.jrn != nil {
		c.jrn.fail(c.jrn.wal.Close())
	}
	c.closeLocked()
}
