package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRunPointsCtxCancelStopsAtPointGranularity cancels a run after
// the first finished point and checks the contract: partial results
// plus ctx.Err(), finished points real, unstarted points carrying the
// context error. The six points share one trace, so they are one job:
// the cancel must take effect between the points of a job.
func TestRunPointsCtxCancelStopsAtPointGranularity(t *testing.T) {
	t.Parallel()
	pts := testPoints(6)
	eng := &Engine{Parallel: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	first := true
	res, err := eng.RunPointsCtx(ctx, pts, func(p Progress) {
		if first {
			first = false
			cancel() // after the first point resolves
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var real, canceled int
	for _, o := range res.Outcomes {
		switch {
		case o == nil:
			t.Fatal("nil outcome: every point must be accounted for")
		case o.Err == "" && o.Result != nil:
			real++
		case strings.Contains(o.Err, context.Canceled.Error()):
			canceled++
		default:
			t.Fatalf("unexpected outcome: %+v", o)
		}
	}
	if real == 0 {
		t.Fatal("the point finished before the cancel must keep its result")
	}
	if canceled == 0 {
		t.Fatal("cancellation must stop unstarted points")
	}
	if real+canceled != len(pts) {
		t.Fatalf("real=%d canceled=%d, want total %d", real, canceled, len(pts))
	}
}

// TestRunPointsCtxPreCanceledServesCacheOnly runs with an already-dead
// context: cache hits still come back, every miss fails with the
// context error and nothing is simulated.
func TestRunPointsCtxPreCanceledServesCacheOnly(t *testing.T) {
	t.Parallel()
	pts := testPoints(4)
	cache := NewCache()
	eng := &Engine{Parallel: 2, Cache: cache}
	warm, err := eng.RunPoints(pts[:2], nil)
	if err != nil || warm.Stats.Simulated != 2 {
		t.Fatalf("warmup: %v, stats %+v", err, warm.Stats)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.RunPointsCtx(ctx, pts, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Stats.CacheHits != 2 || res.Stats.Simulated != 0 || res.Stats.Errors != 2 {
		t.Fatalf("stats = %+v, want 2 hits, 0 simulated, 2 errors", res.Stats)
	}
}

// TestWorkerDrainRequeuesShard drains a worker mid-shard and checks the
// lease lapses back to the queue instead of a partial completion being
// believed: a second, healthy worker finishes the job.
func TestWorkerDrainRequeuesShard(t *testing.T) {
	t.Parallel()
	c := NewCoordinator(nil, CoordConfig{LeaseTTL: 200 * time.Millisecond,
		Planner: ShardPlanner{MaxPoints: 8}})
	defer c.Close()
	// One shard of points slow enough (tens of ms each on one core)
	// that the drain reliably lands mid-shard.
	pts := Grid{Workloads: []string{"tomcatv", "go"}, Policies: []string{"conv", "extended"},
		IntRegs: []int{40, 48}, Scale: 20_000}.Expand()
	if len(pts) != 8 {
		t.Fatalf("grid expands to %d points, want 8", len(pts))
	}
	done := submitAsync(c, pts)

	// Worker 1 starts the shard, then is drained almost immediately.
	wctx, drain := context.WithCancel(context.Background())
	w1 := &Worker{Source: c, Name: "draining", Parallel: 1}
	w1done := make(chan struct{})
	go func() { defer close(w1done); w1.Run(wctx) }()
	time.Sleep(20 * time.Millisecond)
	drain()
	select {
	case <-w1done:
	case <-time.After(5 * time.Second):
		t.Fatal("drained worker did not exit")
	}

	// A healthy worker picks up the lapsed shard after the TTL.
	w2ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go (&Worker{Source: c, Name: "healthy"}).Run(w2ctx)

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if err := r.res.Err(); err != nil {
			t.Fatalf("drain must not surface errors to the submitter: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job did not recover from the drained worker")
	}
	if n := c.Counters().LeaseExpiries; n == 0 {
		t.Error("drained worker's lease should have expired")
	}
}

// TestCoordinatorCounters drives the lease state machine by hand and
// checks every counter moves where it should.
func TestCoordinatorCounters(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, MaxAttempts: 3,
		Planner: ShardPlanner{MaxPoints: 4}})
	rep, err := c.RegisterWorker("w1")
	if err != nil {
		t.Fatal(err)
	}

	pts := testPoints(4)
	done := submitAsync(c, pts)
	cs := c.Counters()
	if cs.JobsSubmitted != 1 || cs.PointsSubmitted != 4 {
		t.Fatalf("after submit: %+v", cs)
	}

	// Lease, renew, let it expire → requeue.
	grant, err := c.LeaseShard(rep.WorkerID)
	if err != nil || grant == nil {
		t.Fatalf("lease: %v, %v", grant, err)
	}
	if err := c.RenewLease(rep.WorkerID, grant.LeaseID); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Minute)
	c.Status() // reap
	cs = c.Counters()
	if cs.LeasesGranted != 1 || cs.LeaseRenewals != 1 || cs.LeaseExpiries != 1 || cs.ShardsRequeued != 1 {
		t.Fatalf("after expiry: %+v", cs)
	}

	// Re-lease, complete with a garbage payload → rejected + requeued.
	grant, err = c.LeaseShard(rep.WorkerID)
	if err != nil || grant == nil {
		t.Fatalf("re-lease: %v, %v", grant, err)
	}
	bad := fakeOutcomes(grant)
	bad[0].Key = "wrong"
	if err := c.CompleteShard(&CompleteRequest{LeaseID: grant.LeaseID,
		WorkerID: rep.WorkerID, Outcomes: bad}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("want ErrBadPayload, got %v", err)
	}
	cs = c.Counters()
	if cs.CompletionsRejected != 1 || cs.ShardsRequeued != 2 {
		t.Fatalf("after rejection: %+v", cs)
	}

	// Complete for real (error outcomes: the fabricated kind verify accepts).
	grant, err = c.LeaseShard(rep.WorkerID)
	if err != nil || grant == nil {
		t.Fatalf("final lease: %v, %v", grant, err)
	}
	if err := c.CompleteShard(&CompleteRequest{LeaseID: grant.LeaseID,
		WorkerID: rep.WorkerID, Outcomes: fakeOutcomes(grant)}); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil {
		t.Fatal(r.err)
	}
	cs = c.Counters()
	if cs.ShardsCompleted != 1 || cs.JobsDone != 1 || cs.PointsDone != 4 || cs.PointsFailed != 4 {
		t.Fatalf("after completion: %+v", cs)
	}
}
