package sweep

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
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
// proof: hard-halt mid-job (no snapshot — recovery runs on the WAL,
// including a garbage tail), reopen with a cold cache, and the queue
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

	c1.Halt() // crash: no graceful snapshot
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

// TestGracefulResumeFromSnapshot is the SIGTERM variant: Close writes
// the snapshot, a reopened coordinator resumes from it, and a lease
// whose TTL lapsed across the restart is reaped into a requeue with
// its attempt counter intact.
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
	// Graceful shutdown compacted: recovery reads the snapshot alone.
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after graceful close: %v size=%d", err, fi.Size())
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
