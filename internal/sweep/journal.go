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
// internal/sweep/durable WAL (DESIGN.md §4.3 "Durability"). The WAL
// records every queue transition — job submission, shard plan,
// resolved outcomes, lease grant/renewal/burn, job completion — and
// compaction atomically rewrites it as the fewest records that rebuild
// the live queue. Recovery applies every record straight to a fresh
// Coordinator and reconstructs exactly the pre-crash queue: pending
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
	recTypeSpan    byte = 8 // spans appended to a timeline: telemetry, replayed into the recorder only
	recTypeSeq     byte = 9 // a compacted log's first record: the id sequence
)

// compactEvery is the number of appends between automatic compactions.
const compactEvery = 256

// walRec is every record type's JSON payload; each type sets only the
// fields marked with its name.
type walRec struct {
	ID       string          `json:"id,omitempty"`          // job, lease, renew, burn
	Job      string          `json:"job,omitempty"`         // done, jobdone
	Label    string          `json:"label,omitempty"`       // job, span
	Trace    string          `json:"trace,omitempty"`       // job, span
	Meta     json.RawMessage `json:"meta,omitempty"`        // job
	Points   []Point         `json:"points,omitempty"`      // job
	Keys     []string        `json:"keys,omitempty"`        // job
	Shards   []shardRec      `json:"shards,omitempty"`      // plan
	Entries  []doneEntry     `json:"entries,omitempty"`     // done
	Worker   string          `json:"worker,omitempty"`      // lease
	Shard    string          `json:"shard,omitempty"`       // lease
	Attempt  int             `json:"attempt,omitempty"`     // lease
	Deadline int64           `json:"deadline_ms,omitempty"` // lease, renew: absolute unix ms
	Spans    []obs.Span      `json:"spans,omitempty"`       // span
	Dropped  int             `json:"dropped,omitempty"`     // span: already lost to the ring bound
	Seq      int             `json:"seq,omitempty"`         // seq
}

// shardRec names a shard's points as slots into its job's point list;
// a live fedShard is one of these plus its job.
type shardRec struct {
	ID      string `json:"id"`
	Job     string `json:"job"`
	Idx     []int  `json:"idx"`
	Attempt int    `json:"attempt,omitempty"`
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

// journal owns the coordinator's WAL. All methods are called under
// the coordinator's mutex. Append failures are sticky and reported in
// FederationStatus rather than failing the live queue: a coordinator
// that cannot persist keeps serving (degraded to memory-only) instead
// of dropping work on the floor.
type journal struct {
	wal     *durable.WAL
	appends int // since the last compaction
	err     error
}

func (j *journal) fail(err error) {
	if j.err == nil && err != nil {
		j.err = err
	}
}

// journal appends one record, fsyncing the data-bearing types (jobs
// and outcomes must survive a machine crash once acknowledged; a lost
// lease or plan record only costs re-simulation time, never results).
func (c *Coordinator) journal(typ byte, r walRec) {
	if j := c.jrn; j != nil {
		sync := typ == recTypeJob || typ == recTypeDone
		j.fail(j.wal.AppendJSON(typ, r, sync))
		j.appends++
	}
}

// unlock releases c.mu, compacting first once compactEvery appends
// have piled up. Compaction waits for the unlock because only between
// operations does the live queue match the log: mid-operation, a
// burned lease's shard is in neither the lease table nor the queue.
func (c *Coordinator) unlock() {
	if j := c.jrn; j != nil && j.appends >= compactEvery && !c.closed {
		c.compactLocked()
	}
	c.mu.Unlock()
}

// compactLocked rewrites the WAL as the records that rebuild the live
// queue. A failed rewrite leaves the old log in place, so appends
// carry on there and a retry comes compactEvery appends later.
// Called under c.mu, between operations.
func (c *Coordinator) compactLocked() {
	j := c.jrn
	if j == nil {
		return
	}
	j.appends = 0
	recs, err := c.stateRecordsLocked()
	if err == nil {
		err = j.wal.Rewrite(recs)
	}
	if err != nil {
		j.fail(err)
		return
	}
	c.counters.JournalCompactions++
}

// Compact forces a compaction now (Close runs one on the way out).
// No-op on a memory-only or closed coordinator.
func (c *Coordinator) Compact() {
	c.mu.Lock()
	defer c.unlock()
	if !c.closed {
		c.compactLocked()
	}
}

// stateRecordsLocked encodes the live queue as a compacted log: the id
// sequence; each job's submission and resolved outcomes, in
// submission order; one plan holding the pending shards in queue
// order, then the leased ones; a lease record per lease; and one span
// record per retained timeline. Shards and leases always belong to
// jobs in c.jobs (a job leaves it only after its shards are gone).
func (c *Coordinator) stateRecordsLocked() ([]durable.Record, error) {
	var recs []durable.Record
	var err error
	add := func(typ byte, v any) {
		blob, merr := json.Marshal(v)
		if merr != nil && err == nil {
			err = fmt.Errorf("sweep: encode compacted wal: %w", merr)
		}
		recs = append(recs, durable.Record{Type: typ, Payload: blob})
	}
	add(recTypeSeq, walRec{Seq: c.seq})
	for _, job := range c.jobsInOrderLocked() {
		add(recTypeJob, jobRecOf(job))
		done := walRec{Job: job.id}
		for i, o := range job.res.Outcomes {
			if o != nil {
				done.Entries = append(done.Entries, doneEntry{Idx: i, Cached: o.Cached, Err: o.Err, Result: o.Result})
			}
		}
		if len(done.Entries) > 0 {
			add(recTypeDone, done)
		}
	}
	leases := make([]*fedLease, 0, len(c.leases))
	for _, ls := range c.leases {
		leases = append(leases, ls)
	}
	sort.Slice(leases, func(a, b int) bool { return idSeq(leases[a].id) < idSeq(leases[b].id) })
	var plan walRec
	for _, sh := range c.pending {
		plan.Shards = append(plan.Shards, sh.shardRec)
	}
	for _, ls := range leases {
		plan.Shards = append(plan.Shards, ls.shard.shardRec)
	}
	if len(plan.Shards) > 0 {
		add(recTypePlan, plan)
	}
	for _, ls := range leases {
		add(recTypeLease, leaseRecOf(ls))
	}
	for _, t := range c.rec.Dump() {
		add(recTypeSpan, walRec{Trace: t.TraceID, Label: t.Label, Dropped: t.Dropped, Spans: t.Spans})
	}
	return recs, err
}

// jobsInOrderLocked lists the jobs in submission order.
func (c *Coordinator) jobsInOrderLocked() []*fedJob {
	jobs := make([]*fedJob, 0, len(c.jobs))
	for _, job := range c.jobs {
		jobs = append(jobs, job)
	}
	sort.Slice(jobs, func(a, b int) bool { return idSeq(jobs[a].id) < idSeq(jobs[b].id) })
	return jobs
}

func jobRecOf(job *fedJob) walRec {
	return walRec{ID: job.id, Label: job.label, Trace: job.trace, Meta: job.meta,
		Points: job.points, Keys: job.keys}
}

func leaseRecOf(ls *fedLease) walRec {
	return walRec{ID: ls.id, Worker: ls.workerID, Shard: ls.shard.ID,
		Attempt: ls.shard.Attempt, Deadline: ls.deadline.UnixMilli()}
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

// --- recovery ------------------------------------------------------------

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
// cfg.StateDir set, the WAL is replayed (torn tail tolerated) into the
// new coordinator, compacted unless it held no record, and every queue
// transition from here on is journaled. With an empty StateDir it is
// exactly NewCoordinator.
func OpenCoordinator(cache *Cache, cfg CoordConfig) (*Coordinator, error) {
	c := NewCoordinator(cache, cfg)
	if cfg.StateDir == "" {
		return c, nil
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: state dir: %w", err)
	}
	// Earlier versions kept the queue in a snapshot beside the WAL; a
	// WAL read without it would be missing every compacted job.
	old := filepath.Join(cfg.StateDir, "snapshot.json")
	if _, err := os.Stat(old); err == nil {
		return nil, fmt.Errorf("sweep: state dir holds %s from an older journal format, which this version cannot read", old)
	}
	wal, recs, err := durable.OpenWAL(filepath.Join(cfg.StateDir, "wal.log"))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.unlock()
	collected := collectedJobs(recs)
	c.adopting = true
	for _, rec := range recs {
		if err := c.apply(rec, collected); err != nil {
			wal.Close()
			return nil, err
		}
	}
	c.settleReplayLocked()
	c.adopting = false
	// Compact immediately: dropped anonymous jobs disappear for good.
	// An empty log has nothing to drop, so a fresh start writes and
	// syncs nothing.
	c.jrn = &journal{wal: wal}
	if len(recs) > 0 {
		c.compactLocked()
	}
	return c, nil
}

// collectedJobs lists the jobs whose waiter collected them (a jobdone
// record). Replay skips their records from the start: they are gone
// for good, so their results stay out of the rebuilt cache just as
// they stay out of a compacted log.
func collectedJobs(recs []durable.Record) map[string]bool {
	collected := make(map[string]bool)
	for _, rec := range recs {
		var r walRec
		if rec.Type == recTypeJobDone && json.Unmarshal(rec.Payload, &r) == nil {
			collected[r.Job] = true
		}
	}
	return collected
}

// apply replays one WAL record into the coordinator, which has no
// journal yet. Decode failures and slot indices outside their job's
// point list abort recovery (the durable layer already dropped torn
// tails, so either means a schema bug, not crash damage); references
// that no longer resolve — a renew for a burned lease, a plan for a
// collected job — are skipped, as the live coordinator treats stale
// ids.
func (c *Coordinator) apply(rec durable.Record, collected map[string]bool) error {
	var r walRec
	if err := json.Unmarshal(rec.Payload, &r); err != nil {
		return fmt.Errorf("sweep: replay wal record type %d: %w", rec.Type, err)
	}
	switch rec.Type {
	case recTypeSeq:
		c.seq = max(c.seq, r.Seq)
	case recTypeJob:
		c.bump(r.ID)
		if len(r.Keys) != len(r.Points) {
			return fmt.Errorf("sweep: replay job record %s: %d keys for %d points", r.ID, len(r.Keys), len(r.Points))
		}
		if !collected[r.ID] {
			c.jobs[r.ID] = &fedJob{id: r.ID, label: r.Label, trace: r.Trace, meta: r.Meta,
				points: r.Points, keys: r.Keys,
				res: newResults(len(r.Points)), doneCh: make(chan struct{})}
		}
	case recTypePlan:
		for _, sr := range r.Shards {
			c.bump(sr.ID)
			job := c.jobs[sr.Job]
			if job == nil || job.label == "" {
				continue // anonymous jobs are dropped at the end of replay
			}
			for _, i := range sr.Idx {
				if err := job.slotErr("plan", i); err != nil {
					return err
				}
			}
			c.pending = append(c.pending, &fedShard{shardRec: sr, job: job})
		}
	case recTypeDone:
		job := c.jobs[r.Job]
		if job == nil {
			break
		}
		for _, e := range r.Entries {
			if err := job.slotErr("done", e.Idx); err != nil {
				return err
			}
		}
		c.resolveLocked(job, r.Entries, nil)
	case recTypeLease:
		c.bump(r.ID)
		for i, sh := range c.pending {
			if sh.ID == r.Shard {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				sh.Attempt = r.Attempt
				c.leases[r.ID] = &fedLease{id: r.ID, workerID: r.Worker, shard: sh,
					deadline: time.UnixMilli(r.Deadline)}
				break
			}
		}
	case recTypeRenew:
		if ls := c.leases[r.ID]; ls != nil {
			ls.deadline = time.UnixMilli(r.Deadline)
		}
	case recTypeBurn:
		if ls := c.leases[r.ID]; ls != nil {
			delete(c.leases, r.ID)
			c.pending = append([]*fedShard{ls.shard}, c.pending...)
		}
	case recTypeJobDone:
		// collectedJobs already kept the job out of the replay.
	case recTypeSpan:
		c.rec.Load(obs.Timeline{TraceID: r.Trace, Label: r.Label, Dropped: r.Dropped, Spans: r.Spans})
	default:
		return fmt.Errorf("sweep: replay: unknown wal record type %d", rec.Type)
	}
	return nil
}

// bump seeds the id sequence above every replayed id.
func (c *Coordinator) bump(id string) {
	if n := idSeq(id); n > c.seq {
		c.seq = n
	}
}

// slotErr refuses a replayed slot index outside the job's point list.
func (job *fedJob) slotErr(rec string, idx int) error {
	if idx < 0 || idx >= len(job.points) {
		return fmt.Errorf("sweep: replay %s record for %s: slot %d outside its %d points", rec, job.id, idx, len(job.points))
	}
	return nil
}

// settleReplayLocked ends a replay, whose done records already
// resolved every replayed outcome and put its result in the cache —
// so recovery never depends on the cache store having been synced
// before the crash. Anonymous jobs (explorer rounds) are dropped: a
// restarted exploration re-derives the round deterministically against
// that cache. Labeled jobs are listed for ResumeRecovered, and their
// shards shed the resolved slots, as the live queue did when it
// stripped cached points at lease time or emptied a completed or
// abandoned shard out of the queue.
func (c *Coordinator) settleReplayLocked() {
	for _, job := range c.jobsInOrderLocked() {
		if job.label == "" {
			delete(c.jobs, job.id)
			continue
		}
		c.recovered = append(c.recovered, RecoveredJob{Label: job.label, Trace: job.trace,
			Meta: job.meta, Total: job.res.Stats.Points, Done: job.res.Stats.done()})
	}
	for _, ls := range c.leases {
		ls.shard.stripResolved()
	}
	queued := c.pending[:0]
	for _, sh := range c.pending {
		if sh.stripResolved(); len(sh.Idx) > 0 {
			queued = append(queued, sh)
		}
	}
	c.pending = queued
}

// stripResolved drops the slots the shard's job has resolved.
func (sh *fedShard) stripResolved() {
	kept := sh.Idx[:0]
	for _, i := range sh.Idx {
		if sh.job.res.Outcomes[i] == nil {
			kept = append(kept, i)
		}
	}
	sh.Idx = kept
}

// Recovered lists the labeled jobs replayed from the state dir, in
// submission order. Jobs still incomplete must be resumed with
// ResumeRecovered to keep making progress.
func (c *Coordinator) Recovered() []RecoveredJob {
	c.mu.Lock()
	defer c.unlock()
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
		c.unlock()
		return nil, fmt.Errorf("sweep: no recovered job %q", label)
	}
	job.onProg = onProgress
	c.unlock()
	return c.wait(job)
}

// Halt detaches the coordinator from its state dir without the
// graceful-shutdown compaction — the crash-simulation hook the resume
// tests use: whatever the WAL already holds is exactly what a hard
// kill would leave behind. Waiters get ErrClosed, workers see a closed
// coordinator.
func (c *Coordinator) Halt() { c.shutdown(false) }
