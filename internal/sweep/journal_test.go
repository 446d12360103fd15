package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/sweep/durable"
)

// openTestCoordinator is newTestCoordinator for durable coordinators.
func openTestCoordinator(t *testing.T, clk *fakeClock, cfg CoordConfig) *Coordinator {
	t.Helper()
	if clk != nil {
		cfg.now = clk.now
	}
	c, err := OpenCoordinator(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// runLabeledAsync is submitAsync for labeled (journaled) submissions.
func runLabeledAsync(c *Coordinator, label string, pts []Point) chan runResult {
	ch := make(chan runResult, 1)
	before := c.Status().PendingShards
	go func() {
		res, err := c.RunJob("", label, json.RawMessage(`{"test":true}`), pts, nil)
		ch <- runResult{res, err}
	}()
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
		if c.Status().PendingShards > before {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return ch
}

// walRecords reads the state dir's log as a reopen would see it.
func walRecords(t *testing.T, dir string) []durable.Record {
	t.Helper()
	w, recs, err := durable.OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	return recs
}

// completeWithEngine resolves a grant with real simulation results, so
// resumed state carries byte-comparable outcomes.
func completeWithEngine(t *testing.T, c *Coordinator, workerID string, grant *LeaseGrant) {
	t.Helper()
	res, err := (&Engine{}).RunPoints(pointsOf(grant), nil)
	if err != nil {
		t.Fatal(err)
	}
	req := &CompleteRequest{LeaseID: grant.LeaseID, WorkerID: workerID}
	for i, it := range grant.Items {
		o := WireOutcome{Key: it.Key}
		if res.Outcomes[i].Err != "" {
			o.Err = res.Outcomes[i].Err
		} else {
			o.Result = res.Outcomes[i].Result
		}
		req.Outcomes = append(req.Outcomes, o)
	}
	if err := c.CompleteShard(req); err != nil {
		t.Fatal(err)
	}
}

// TestClosedCoordinatorRejectsLeaseCalls pins the Close contract the
// doc comment always promised: once closed, workers cannot lease,
// renew, or complete — every entry point answers ErrClosed.
func TestClosedCoordinatorRejectsLeaseCalls(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4}})
	w, _ := c.RegisterWorker("w")
	done := submitAsync(c, testPoints(4))

	grant, err := c.LeaseShard(w.WorkerID)
	if err != nil || grant == nil {
		t.Fatalf("pre-close lease: %v %v", grant, err)
	}
	c.Close()
	if r := <-done; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("queued job after close: %v", r.err)
	}

	if g, err := c.LeaseShard(w.WorkerID); g != nil || !errors.Is(err, ErrClosed) {
		t.Fatalf("lease after close: %v %v", g, err)
	}
	if err := c.RenewLease(w.WorkerID, grant.LeaseID); !errors.Is(err, ErrClosed) {
		t.Fatalf("renew after close: %v", err)
	}
	err = c.CompleteShard(&CompleteRequest{LeaseID: grant.LeaseID,
		WorkerID: w.WorkerID, Outcomes: fakeOutcomes(grant)})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("complete after close: %v", err)
	}
}

// TestCloseDropsQueuedUnits: after Close returns, no late completion
// path may write into a job whose waiter already got ErrClosed — the
// queue and lease table are emptied under the same lock that marks the
// coordinator closed.
func TestCloseDropsQueuedUnits(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 2}})
	w, _ := c.RegisterWorker("w")
	done := submitAsync(c, testPoints(4))
	grant, err := c.LeaseShard(w.WorkerID)
	if err != nil || grant == nil {
		t.Fatalf("lease: %v %v", grant, err)
	}

	c.Close()
	r := <-done
	if !errors.Is(r.err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", r.err)
	}
	// The late completion is rejected, and the waiter's Results (which
	// the caller may be reading right now) stay untouched.
	err = c.CompleteShard(&CompleteRequest{LeaseID: grant.LeaseID,
		WorkerID: w.WorkerID, Outcomes: fakeOutcomes(grant)})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("late completion: %v", err)
	}
	st := c.Status()
	if st.PendingShards != 0 || st.ActiveLeases != 0 {
		t.Fatalf("closed coordinator still holds work: %+v", st)
	}
}

// TestDonePreferredOverQuit drives the wait loop with both channels
// ready: a fully completed job must return its Results, never a
// spurious ErrClosed. Before the fix the select picked an arm at
// random, so 200 rounds make a regression effectively certain to trip.
func TestDonePreferredOverQuit(t *testing.T) {
	for i := 0; i < 200; i++ {
		c := NewCoordinator(nil, CoordConfig{LeaseTTL: time.Minute})
		job := &fedJob{res: newResults(1), doneCh: make(chan struct{})}
		c.mu.Lock()
		c.finishLocked(job, 0, &Outcome{Point: testPoints(1)[0], Err: "x"})
		c.mu.Unlock()
		c.Close() // both doneCh and quit are now closed
		res, err := c.wait(job)
		if err != nil || res == nil {
			t.Fatalf("round %d: completed job returned %v", i, err)
		}
	}
}

// TestCrashResumeReplaysQueue is the coordinator-level kill-and-resume
// proof: hard-halt mid-job (no compaction — recovery runs on the raw
// WAL, including a garbage tail), reopen with a cold cache, and the queue
// comes back exactly — resolved outcomes, the in-flight lease with its
// worker and attempt count, and the remaining pending work. Completing
// it yields Results byte-identical to an uninterrupted run with zero
// re-simulation of recovered points.
func TestCrashResumeReplaysQueue(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4},
		StateDir: dir}
	c1 := openTestCoordinator(t, clk, cfg)
	w1, _ := c1.RegisterWorker("w1")

	pts := testPoints(8)
	done := runLabeledAsync(c1, "sw-1", pts)

	// Shard one: completed and journaled before the crash.
	g1, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g1 == nil || len(g1.Items) != 4 {
		t.Fatalf("first lease: %+v %v", g1, err)
	}
	completeWithEngine(t, c1, w1.WorkerID, g1)
	// Shard two: in flight when the coordinator dies.
	g2, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g2 == nil || len(g2.Items) != 4 {
		t.Fatalf("second lease: %+v %v", g2, err)
	}

	c1.Halt() // crash: no graceful compaction
	if r := <-done; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("halted waiter: %v", r.err)
	}
	// A real crash can also tear the WAL tail; recovery must shrug it off.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("torn-half-record")
	f.Close()

	// Reopen with a cold cache: every recovered result must come from
	// the journal, not a surviving cache file.
	c2 := openTestCoordinator(t, clk, cfg)
	rec := c2.Recovered()
	if len(rec) != 1 || rec[0].Label != "sw-1" || rec[0].Done != 4 || rec[0].Total != 8 {
		t.Fatalf("recovered: %+v", rec)
	}
	if n := c2.Cache().Len(); n != 4 {
		t.Fatalf("recovered cache holds %d results, want 4", n)
	}
	st := c2.Status()
	if st.ActiveLeases != 1 || st.PendingShards != 0 {
		t.Fatalf("recovered queue: %+v", st)
	}

	resumed := make(chan runResult, 1)
	go func() {
		res, err := c2.ResumeRecovered("sw-1", nil)
		resumed <- runResult{res, err}
	}()

	// The restored lease still belongs to the pre-crash worker: it can
	// renew (ownership survived) and finish the shard it held.
	if err := c2.RenewLease("impostor", g2.LeaseID); !errors.Is(err, ErrWrongWorker) {
		t.Fatalf("impostor renewed restored lease: %v", err)
	}
	if err := c2.RenewLease(w1.WorkerID, g2.LeaseID); err != nil {
		t.Fatalf("restored lease renewal: %v", err)
	}
	completeWithEngine(t, c2, w1.WorkerID, g2)

	r := <-resumed
	if r.err != nil {
		t.Fatal(r.err)
	}
	direct, err := (&Engine{Cache: NewCache()}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(r.res.Outcomes)
	want, _ := json.Marshal(direct.Outcomes)
	if string(got) != string(want) {
		t.Fatalf("resumed outcomes differ from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	// Zero re-simulation: the recovered half stayed "simulated" (its
	// original resolution), and nothing was served twice.
	if r.res.Stats.Simulated != 8 || r.res.Stats.CacheHits != 0 || r.res.Stats.Errors != 0 {
		t.Fatalf("resumed stats: %+v", r.res.Stats)
	}

	// The collected job leaves the journal: a third open starts clean.
	c2.Close()
	c3 := openTestCoordinator(t, clk, cfg)
	if rec := c3.Recovered(); len(rec) != 0 {
		t.Fatalf("collected job recovered again: %+v", rec)
	}
}

// TestGracefulResumeFromSnapshot is the SIGTERM variant: Close
// compacts the WAL into a snapshot of the queue, a reopened
// coordinator resumes from it, and a lease whose TTL lapsed across the
// restart is reaped into a requeue with its attempt counter intact.
func TestGracefulResumeFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4},
		StateDir: dir}
	c1 := openTestCoordinator(t, clk, cfg)
	w1, _ := c1.RegisterWorker("w1")

	pts := testPoints(8)
	done := runLabeledAsync(c1, "sw-9", pts)
	g1, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g1 == nil {
		t.Fatalf("lease: %v %v", g1, err)
	}
	completeWithEngine(t, c1, w1.WorkerID, g1)
	g2, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g2 == nil {
		t.Fatalf("lease 2: %v %v", g2, err)
	}
	c1.Close()
	if r := <-done; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("closed waiter: %v", r.err)
	}
	// Graceful shutdown compacted: the log holds the id sequence, the
	// job, its outcomes, the plan and the one lease — none of the
	// lease traffic that led there.
	for _, r := range walRecords(t, dir) {
		if r.Type == recTypeRenew || r.Type == recTypeBurn {
			t.Fatalf("wal after graceful close holds a type-%d record", r.Type)
		}
	}
	if recs := walRecords(t, dir); len(recs) == 0 || recs[0].Type != recTypeSeq {
		t.Fatalf("wal after graceful close does not start with the id sequence: %d records", len(recs))
	}

	// The restart takes longer than the lease TTL: the restored lease
	// expires and the shard requeues as attempt 2 for a new fleet.
	clk.advance(2 * time.Minute)
	c2 := openTestCoordinator(t, clk, cfg)
	if rec := c2.Recovered(); len(rec) != 1 || rec[0].Label != "sw-9" {
		t.Fatalf("recovered: %+v", rec)
	}
	resumed := make(chan runResult, 1)
	go func() {
		res, err := c2.ResumeRecovered("sw-9", nil)
		resumed <- runResult{res, err}
	}()
	w2, _ := c2.RegisterWorker("w2")
	g3, err := c2.LeaseShard(w2.WorkerID)
	if err != nil || g3 == nil {
		t.Fatalf("post-restart lease: %v %v", g3, err)
	}
	if g3.ShardID != g2.ShardID || g3.Attempt != 2 {
		t.Fatalf("requeued shard: %+v (pre-crash %+v)", g3, g2)
	}
	completeWithEngine(t, c2, w2.WorkerID, g3)
	r := <-resumed
	if r.err != nil {
		t.Fatal(r.err)
	}
	direct, err := (&Engine{Cache: NewCache()}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(r.res.Outcomes)
	want, _ := json.Marshal(direct.Outcomes)
	if string(got) != string(want) {
		t.Fatal("graceful-resume outcomes differ from uninterrupted run")
	}
}

// TestAnonymousJobsDropOnRecovery: unlabeled submissions (explorer
// evaluation rounds) do not resume — but their completed results do
// re-enter the cache, which is what a restarted exploration feeds on.
func TestAnonymousJobsDropOnRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 2},
		StateDir: dir}
	c1 := openTestCoordinator(t, clk, cfg)
	w1, _ := c1.RegisterWorker("w1")
	done := submitAsync(c1, testPoints(4)) // anonymous
	g1, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g1 == nil {
		t.Fatalf("lease: %v %v", g1, err)
	}
	completeWithEngine(t, c1, w1.WorkerID, g1)
	c1.Halt()
	if r := <-done; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("halted waiter: %v", r.err)
	}

	c2 := openTestCoordinator(t, clk, cfg)
	if rec := c2.Recovered(); len(rec) != 0 {
		t.Fatalf("anonymous job recovered: %+v", rec)
	}
	st := c2.Status()
	if st.PendingShards != 0 || st.ActiveLeases != 0 {
		t.Fatalf("anonymous work survived recovery: %+v", st)
	}
	if n := c2.Cache().Len(); n != len(g1.Items) {
		t.Fatalf("recovered cache holds %d results, want %d", n, len(g1.Items))
	}
}

// TestRecoveryIdempotentAcrossInterruptedCompaction: a crash before a
// compaction's rename leaves the log exactly as it stood before the
// compaction. Reopening from that copy after a compaction already ran
// must recover each job once — a second copy of the queue in another
// file would replay the same jobs twice. Repeated open/halt cycles
// then leave the recovered queue unchanged, and the resumed job still
// finishes byte-identical to a direct run.
func TestRecoveryIdempotentAcrossInterruptedCompaction(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4},
		StateDir: dir}
	c1 := openTestCoordinator(t, clk, cfg)
	w1, _ := c1.RegisterWorker("w1")
	pts := testPoints(8)
	done := runLabeledAsync(c1, "sw-1", pts)
	g1, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g1 == nil {
		t.Fatalf("first lease: %+v %v", g1, err)
	}
	completeWithEngine(t, c1, w1.WorkerID, g1)
	g2, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g2 == nil {
		t.Fatalf("second lease: %+v %v", g2, err)
	}
	c1.Halt()
	<-done

	walPath := filepath.Join(dir, "wal.log")
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	openTestCoordinator(t, clk, cfg).Halt() // open compacts
	if err := os.WriteFile(walPath, before, 0o644); err != nil {
		t.Fatal(err)
	}

	c := openTestCoordinator(t, clk, cfg)
	rec, st := c.Recovered(), c.Status()
	if len(rec) != 1 || rec[0].Label != "sw-1" || rec[0].Done != 4 || rec[0].Total != 8 {
		t.Fatalf("recovered: %+v", rec)
	}
	if len(st.Leases) != 1 || st.Leases[0].ID != g2.LeaseID || st.Leases[0].Worker != w1.WorkerID ||
		st.Leases[0].Attempt != 1 || st.PendingShards != 0 {
		t.Fatalf("recovered queue: %+v", st)
	}
	for i := 0; i < 2; i++ {
		c.Halt()
		c = openTestCoordinator(t, clk, cfg)
		if got := c.Recovered(); !reflect.DeepEqual(got, rec) {
			t.Fatalf("reopen %d recovered %+v, want %+v", i+1, got, rec)
		}
		if got := c.Status(); !reflect.DeepEqual(got, st) {
			t.Fatalf("reopen %d status %+v, want %+v", i+1, got, st)
		}
	}

	resumed := make(chan runResult, 1)
	go func() {
		res, err := c.ResumeRecovered("sw-1", nil)
		resumed <- runResult{res, err}
	}()
	completeWithEngine(t, c, w1.WorkerID, g2)
	r := <-resumed
	if r.err != nil {
		t.Fatal(r.err)
	}
	direct, err := (&Engine{Cache: NewCache()}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(r.res.Outcomes)
	want, _ := json.Marshal(direct.Outcomes)
	if string(got) != string(want) {
		t.Fatalf("resumed outcomes differ from a direct run:\n%s\nvs\n%s", got, want)
	}
}

// TestCompactionBetweenOperations: automatic compaction must capture
// a state that matches the log, never one caught mid-operation — a
// rejected lease's shard is out of the lease table but not yet
// requeued when its burn is journaled. Lease/reject cycles run past
// several automatic compactions, and after each one the log must
// reopen to the live queue: the job's one shard pending, nothing lost.
func TestCompactionBetweenOperations(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, MaxAttempts: 1 << 20, StateDir: t.TempDir()}
	c := openTestCoordinator(t, clk, cfg)
	w, _ := c.RegisterWorker("w")
	runLabeledAsync(c, "sw-1", testPoints(2))
	for cycle, checked := 0, 0; checked < 5; cycle++ {
		if cycle > 20*compactEvery {
			t.Fatal("too few automatic compactions")
		}
		before := c.Counters().JournalCompactions
		g, err := c.LeaseShard(w.WorkerID)
		if err != nil || g == nil {
			t.Fatalf("cycle %d lease: %v %v", cycle, g, err)
		}
		bad := fakeOutcomes(g)
		bad[0].Key = "not-the-planned-key"
		if err := c.CompleteShard(&CompleteRequest{LeaseID: g.LeaseID, WorkerID: w.WorkerID,
			Outcomes: bad}); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("cycle %d reject: %v", cycle, err)
		}
		if c.Counters().JournalCompactions == before {
			continue
		}
		checked++
		log, err := os.ReadFile(filepath.Join(cfg.StateDir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		r := openTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, StateDir: dir})
		if st := r.Status(); st.PendingShards != 1 || st.PendingPoints != 2 || st.ActiveLeases != 0 {
			t.Fatalf("cycle %d: log compacted mid-operation reopens to %+v", cycle, st)
		}
		r.Halt()
	}
}

// TestFreshStateDirOpensWithoutCompaction opens a coordinator on an
// empty state dir: replay read nothing, so it compacts nothing and the
// log stays empty. Halted and reopened, it recovers an empty queue. A
// log with records is still compacted at open.
func TestFreshStateDirOpensWithoutCompaction(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	c := openTestCoordinator(t, nil, CoordConfig{StateDir: dir})
	if n := c.Counters().JournalCompactions; n != 0 {
		t.Errorf("a fresh open compacted %d times", n)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != 0 {
		t.Fatalf("fresh log: %v, %v; want an empty file", fi, err)
	}
	c.Halt()

	c = openTestCoordinator(t, nil, CoordConfig{StateDir: dir})
	if n := c.Counters().JournalCompactions; n != 0 {
		t.Errorf("reopening an empty log compacted %d times", n)
	}
	if rec, q := c.Recovered(), queueOf(c); len(rec) != 0 || !reflect.DeepEqual(q, queueState{}) {
		t.Fatalf("reopened an empty log: recovered %+v, queue %+v", rec, q)
	}
	submitJournaled(t, c, "sw-1", testPoints(2))
	settleJournal(t, c)
	c.Halt()

	c = openTestCoordinator(t, nil, CoordConfig{StateDir: dir})
	if n := c.Counters().JournalCompactions; n != 1 {
		t.Errorf("reopening a log with a job compacted %d times, want 1", n)
	}
	if rec := c.Recovered(); len(rec) != 1 || rec[0].Label != "sw-1" {
		t.Errorf("recovered %+v, want sw-1", rec)
	}
}

// TestOpenRefusesLegacySnapshot: a state dir written by the
// snapshot-plus-WAL format is refused by name, not half-read.
func TestOpenRefusesLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "snapshot.json")
	if err := os.WriteFile(legacy, []byte(`{"seq":3,"jobs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenCoordinator(nil, CoordConfig{StateDir: dir})
	if err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("open over a legacy snapshot: %v", err)
	}
}

// FuzzJournalCompaction drives a durable coordinator through a random
// sequence of submit, lease, complete, reject, expire, renew and halt
// operations, then reopens the log it left twice: once raw, and once
// from that log's compaction. Both must recover the same jobs,
// pending shards, leases and attempts, and resume to the same
// outcomes.
func FuzzJournalCompaction(f *testing.F) {
	for _, ops := range journalScriptSeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		clk := &fakeClock{t: time.Unix(1000, 0)}
		cfg := CoordConfig{LeaseTTL: time.Minute, MaxAttempts: 2,
			Planner: ShardPlanner{MaxPoints: 2}, StateDir: t.TempDir()}
		runWithRestarts(t, clk, cfg, ops).c.Halt()
		raw, err := os.ReadFile(filepath.Join(cfg.StateDir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}

		// The clock stands still from here on: no restored lease expires,
		// so nothing requeues in lease-table order.
		reopen := func(log []byte) (*Coordinator, string) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
				t.Fatal(err)
			}
			c := openTestCoordinator(t, clk, CoordConfig{LeaseTTL: cfg.LeaseTTL,
				MaxAttempts: cfg.MaxAttempts, Planner: cfg.Planner, StateDir: dir})
			return c, dir
		}
		fromRaw, dirRaw := reopen(raw)
		compacted, err := os.ReadFile(filepath.Join(dirRaw, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		fromCompact, _ := reopen(compacted)

		if a, b := fromRaw.Recovered(), fromCompact.Recovered(); !reflect.DeepEqual(a, b) {
			t.Fatalf("recovered jobs differ:\nraw       %+v\ncompacted %+v", a, b)
		}
		if a, b := queueOf(fromRaw), queueOf(fromCompact); !reflect.DeepEqual(a, b) {
			t.Fatalf("recovered queues differ:\nraw       %+v\ncompacted %+v", a, b)
		}
		if a, b := resumeAll(t, fromRaw), resumeAll(t, fromCompact); !reflect.DeepEqual(a, b) {
			t.Fatalf("resumed outcomes differ:\nraw       %v\ncompacted %v", a, b)
		}
	})
}

// runWithRestarts runs ops against a durable coordinator on cfg's
// state dir. A halt op crashes it and opens the log again, and the
// script's worker registers again with the new coordinator, which does
// not know its old id. The returned script holds the last coordinator,
// still running.
func runWithRestarts(t *testing.T, clk *fakeClock, cfg CoordConfig, ops []byte) *opScript {
	t.Helper()
	s := newOpScript(t, clk, openTestCoordinator(t, clk, cfg))
	for _, b := range ops {
		if s.do(b) { // crash and restart
			s.c.Halt()
			c := openTestCoordinator(t, clk, cfg)
			for _, rj := range c.Recovered() {
				go c.ResumeRecovered(rj.Label, nil)
			}
			s.register(c)
			s.restarts++
		}
		settleJournal(t, s.c)
	}
	return s
}

// TestScriptLeasesAfterRestart runs the second journal seed, whose
// halt comes before a submission and a lease: the script must lease
// again from the reopened coordinator.
func TestScriptLeasesAfterRestart(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, MaxAttempts: 2,
		Planner: ShardPlanner{MaxPoints: 2}, StateDir: t.TempDir()}
	s := runWithRestarts(t, clk, cfg, journalScriptSeeds[1])
	if s.restarts == 0 || s.leasesAfterRestart == 0 {
		t.Fatalf("%d restarts, %d leases granted after one; want at least one of each",
			s.restarts, s.leasesAfterRestart)
	}
}

// submitJournaled starts a submission and returns once the coordinator
// has queued it (classification and planning run under one lock hold,
// so the submitted counter moving means both are done). The channel
// receives the job's Results when its waiter collects them.
func submitJournaled(t *testing.T, c *Coordinator, label string, pts []Point) chan *Results {
	t.Helper()
	before := c.Counters().JobsSubmitted
	done := make(chan *Results, 1)
	go func() {
		res, _ := c.RunJob("", label, json.RawMessage(`{"fuzz":true}`), pts, nil)
		done <- res
	}()
	for end := time.Now().Add(5 * time.Second); c.Counters().JobsSubmitted == before; {
		if time.Now().After(end) {
			t.Fatal("submission never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return done
}

// settleJournal waits until every finished job's waiter has journaled
// its completion, so goroutine scheduling does not change the log a
// fuzz input writes.
func settleJournal(t *testing.T, c *Coordinator) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); ; {
		c.mu.Lock()
		busy := false
		for _, j := range c.jobs {
			busy = busy || (!c.closed && j.res.Stats.done() == j.res.Stats.Points)
		}
		c.mu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(end) {
			t.Fatal("finished job never collected")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// fuzzOutcomes completes a grant with results derived from each key,
// so completions fill the cache and later plans strip cached points.
func fuzzOutcomes(g *LeaseGrant, fail bool) []WireOutcome {
	out := make([]WireOutcome, len(g.Items))
	for i, it := range g.Items {
		out[i] = WireOutcome{Key: it.Key, Result: &pipeline.Result{Name: it.Key[:8], Cycles: int64(i + 1)}}
		if fail {
			out[i] = WireOutcome{Key: it.Key, Err: "fuzz failure"}
		}
	}
	return out
}

// journalScriptSeeds are FuzzJournalCompaction's seed scripts.
var journalScriptSeeds = [][]byte{
	{0, 1, 2, 0, 1, 5, 3, 6, 1, 2},
	{0, 7, 1, 1, 4, 1, 3, 1, 2, 6, 14, 1, 9, 2, 13},
	{21, 0, 1, 8, 1, 2, 3, 1, 4, 6, 1, 5, 6, 2, 0, 1},
}

// opScript runs operation scripts against a coordinator: each byte is
// one submit, lease, complete, reject, expire, renew or halt operation
// (b % 7) with an argument (b / 7).
type opScript struct {
	t      *testing.T
	clk    *fakeClock
	c      *Coordinator
	worker string // the id the script's worker leases under
	pool   []Point
	held   []heldLease
	labels int
	// results holds one channel per submission, in submission order;
	// each receives the job's Results once its waiter collects them.
	results []chan *Results

	restarts, leasesAfterRestart int
}

// heldLease is a grant and the worker id it was leased under, which a
// restart does not change: replay restores the lease to that id.
type heldLease struct {
	*LeaseGrant
	worker string
}

func newOpScript(t *testing.T, clk *fakeClock, c *Coordinator) *opScript {
	s := &opScript{t: t, clk: clk, pool: testPoints(6)}
	s.register(c)
	return s
}

// register makes c the script's coordinator and registers the script's
// worker with it.
func (s *opScript) register(c *Coordinator) {
	w, err := c.RegisterWorker("w")
	if err != nil {
		s.t.Fatal(err)
	}
	s.c, s.worker = c, w.WorkerID
}

// do applies one operation. A halt is left to the caller: do reports
// it and changes nothing.
func (s *opScript) do(b byte) (halt bool) {
	c, arg := s.c, int(b/7)
	switch b % 7 {
	case 0: // submit, labeled on even args
		start := arg % 4
		label := ""
		if arg%2 == 0 {
			s.labels++
			label = fmt.Sprintf("sw-%d", s.labels)
		}
		s.results = append(s.results, submitJournaled(s.t, c, label, s.pool[start:start+1+arg%3]))
	case 1: // lease
		if g, err := c.LeaseShard(s.worker); err == nil && g != nil {
			s.held = append(s.held, heldLease{g, s.worker})
			if s.restarts > 0 {
				s.leasesAfterRestart++
			}
		}
	case 2: // complete, with errors on odd args
		if len(s.held) > 0 {
			c.CompleteShard(&CompleteRequest{LeaseID: s.held[0].LeaseID,
				WorkerID: s.held[0].worker, Outcomes: fuzzOutcomes(s.held[0].LeaseGrant, arg%2 == 1)})
			s.held = s.held[1:]
		}
	case 3: // reject: a key that does not match the plan
		if len(s.held) > 0 {
			bad := fuzzOutcomes(s.held[0].LeaseGrant, false)
			bad[0].Key = "not-the-planned-key"
			c.CompleteShard(&CompleteRequest{LeaseID: s.held[0].LeaseID,
				WorkerID: s.held[0].worker, Outcomes: bad})
			s.held = s.held[1:]
		}
	case 4: // expire every lease
		s.clk.advance(2 * time.Minute)
		c.Status()
		s.held = nil
	case 5: // renew
		if len(s.held) > 0 {
			c.RenewLease(s.held[0].worker, s.held[0].LeaseID)
		}
	case 6: // crash and restart
		return true
	}
	return false
}

type queueState struct {
	Seq     int
	Pending []shardRec
	Leases  []walRec
	Shards  []shardRec // the leased shards, in lease order
}

func queueOf(c *Coordinator) queueState {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := queueState{Seq: c.seq}
	for _, sh := range c.pending {
		q.Pending = append(q.Pending, sh.shardRec)
	}
	ids := make([]string, 0, len(c.leases))
	for id := range c.leases {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return idSeq(ids[a]) < idSeq(ids[b]) })
	for _, id := range ids {
		ls := c.leases[id]
		q.Leases = append(q.Leases, leaseRecOf(ls))
		q.Shards = append(q.Shards, ls.shard.shardRec)
	}
	return q
}

// resumeAll finishes every recovered job: each restored lease is
// completed by its pre-crash worker in lease order, a fresh worker
// completes the rest, and each job's results come back as JSON keyed
// by label.
func resumeAll(t *testing.T, c *Coordinator) map[string]string {
	t.Helper()
	rec := c.Recovered()
	results := make(chan [2]string, len(rec))
	for _, rj := range rec {
		go func(label string) {
			res, err := c.ResumeRecovered(label, nil)
			blob, _ := json.Marshal(res)
			results <- [2]string{label, fmt.Sprint(string(blob), err)}
		}(rj.Label)
	}
	complete := func(g *LeaseGrant, workerID string) {
		if err := c.CompleteShard(&CompleteRequest{LeaseID: g.LeaseID, WorkerID: workerID,
			Outcomes: fuzzOutcomes(g, false)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range queueOf(c).Leases {
		g := &LeaseGrant{LeaseID: l.ID}
		c.mu.Lock()
		sh := c.leases[l.ID].shard
		for _, i := range sh.Idx {
			g.Items = append(g.Items, WorkItem{Point: sh.job.points[i], Key: sh.job.keys[i]})
		}
		c.mu.Unlock()
		complete(g, l.Worker)
	}
	w, _ := c.RegisterWorker("resume")
	for {
		g, err := c.LeaseShard(w.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			break
		}
		complete(g, w.WorkerID)
	}
	out := map[string]string{}
	for range rec {
		select {
		case r := <-results:
			out[r[0]] = r[1]
		case <-time.After(5 * time.Second):
			t.Fatal("recovered job never finished")
		}
	}
	return out
}

// TestReapBurnsInGrantOrder expires several leases in one reap, 100
// times over: the burn records must follow grant order and the
// requeued shards lead the queue last-granted first, the order that
// replaying those records rebuilds. The lease ids cross from one digit
// to two, where string order and grant order part.
func TestReapBurnsInGrantOrder(t *testing.T) {
	for rep := 0; rep < 100; rep++ {
		clk := &fakeClock{t: time.Unix(1000, 0)}
		dir := t.TempDir()
		c := openTestCoordinator(t, clk, CoordConfig{StateDir: dir, LeaseTTL: time.Minute,
			Planner: ShardPlanner{MaxPoints: 1}})
		wk, _ := c.RegisterWorker("w")
		done := runLabeledAsync(c, "reap", testPoints(4))
		var leases, shards []string
		for {
			g, err := c.LeaseShard(wk.WorkerID)
			if err != nil {
				t.Fatal(err)
			}
			if g == nil {
				break
			}
			leases, shards = append(leases, g.LeaseID), append(shards, g.ShardID)
		}
		if len(leases) != 4 || leases[0] != "ls-8" || leases[3] != "ls-11" {
			t.Fatalf("granted %v; want ls-8 … ls-11", leases)
		}
		clk.advance(2 * time.Minute)
		c.Status() // one reap expires all four

		c.mu.Lock()
		var pending []string
		for _, sh := range c.pending {
			pending = append(pending, sh.ID)
		}
		c.mu.Unlock()
		var burned []string
		for _, r := range walRecords(t, dir) {
			if r.Type == recTypeBurn {
				var w walRec
				if err := json.Unmarshal(r.Payload, &w); err != nil {
					t.Fatal(err)
				}
				burned = append(burned, w.ID)
			}
		}
		if !reflect.DeepEqual(burned, leases) {
			t.Fatalf("rep %d: burned %v; granted %v", rep, burned, leases)
		}
		if len(pending) != len(shards) {
			t.Fatalf("rep %d: pending %v after expiring %v", rep, pending, shards)
		}
		for i, id := range pending {
			if want := shards[len(shards)-1-i]; id != want {
				t.Fatalf("rep %d: pending %v; want the granted shards %v last first", rep, pending, shards)
			}
		}
		c.Close()
		<-done
	}
}

// loggedRec is one record for writeLog.
type loggedRec struct {
	typ byte
	rec walRec
}

// writeLog writes records into a fresh state dir's WAL, frame for
// frame as a coordinator would, and returns the dir.
func writeLog(t *testing.T, recs ...loggedRec) string {
	t.Helper()
	dir := t.TempDir()
	w, _, err := durable.OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.AppendJSON(r.typ, r.rec, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayRefusesBadSlots: a log of well-formed frames whose slot
// indices do not fit their job is refused with an error naming the
// record and the job, never a panic.
func TestReplayRefusesBadSlots(t *testing.T) {
	pts := testPoints(2)
	keys, _ := Keys(pts)
	one := walRec{ID: "job-1", Label: "sw-1", Points: pts[:1], Keys: keys[:1]}
	for _, tc := range []struct {
		name string
		recs []loggedRec
		want string
	}{
		{"plan slot past the points", []loggedRec{{recTypeJob, one},
			{recTypePlan, walRec{Shards: []shardRec{{ID: "sh-2", Job: "job-1", Idx: []int{5}}}}}},
			"replay plan record for job-1"},
		{"negative done slot", []loggedRec{{recTypeJob, one},
			{recTypeDone, walRec{Job: "job-1", Entries: []doneEntry{{Idx: -1, Err: "x"}}}}},
			"replay done record for job-1"},
		{"fewer keys than points", []loggedRec{
			{recTypeJob, walRec{ID: "job-1", Label: "sw-1", Points: pts, Keys: keys[:1]}},
			{recTypePlan, walRec{Shards: []shardRec{{ID: "sh-2", Job: "job-1", Idx: []int{0, 1}}}}}},
			"replay job record job-1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := OpenCoordinator(nil, CoordConfig{StateDir: writeLog(t, tc.recs...)})
			if err == nil {
				c.Close()
				t.Fatal("replay accepted the log")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("replay error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestReplayBumpsNoCounters: lifetime counters count only this
// process's work. Replaying a finished but uncollected labeled job, a
// half-done one and an anonymous one resolves their outcomes again,
// but a reopened coordinator's counters read zero — apart from the
// compaction it runs at open.
func TestReplayBumpsNoCounters(t *testing.T) {
	pts := testPoints(3)
	keys, _ := Keys(pts)
	done := func(job string, idx ...int) loggedRec {
		r := walRec{Job: job}
		for _, i := range idx {
			r.Entries = append(r.Entries, doneEntry{Idx: i, Err: "fabricated for test"})
		}
		return loggedRec{recTypeDone, r}
	}
	dir := writeLog(t,
		loggedRec{recTypeJob, walRec{ID: "job-1", Label: "sw-1", Points: pts, Keys: keys}},
		done("job-1", 0, 1, 2),
		loggedRec{recTypeJob, walRec{ID: "job-2", Label: "sw-2", Points: pts, Keys: keys}},
		loggedRec{recTypePlan, walRec{Shards: []shardRec{{ID: "sh-3", Job: "job-2", Idx: []int{1, 2}}}}},
		done("job-2", 0),
		loggedRec{recTypeJob, walRec{ID: "job-4", Points: pts[:1], Keys: keys[:1]}},
		done("job-4", 0),
	)
	c := openTestCoordinator(t, nil, CoordConfig{StateDir: dir})
	rec := c.Recovered()
	if len(rec) != 2 || rec[0].Done != 3 || rec[1].Done != 1 {
		t.Fatalf("recovered: %+v", rec)
	}
	if got := c.Counters(); got != (CoordCounters{JournalCompactions: 1}) {
		t.Fatalf("counters after replay: %+v", got)
	}
}
