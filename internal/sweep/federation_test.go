package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the coordinator's lease clock deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestCoordinator(t *testing.T, clk *fakeClock, cfg CoordConfig) *Coordinator {
	t.Helper()
	if clk != nil {
		cfg.now = clk.now
	}
	c := NewCoordinator(nil, cfg)
	t.Cleanup(c.Close)
	return c
}

// submitAsync runs coord.RunPoints in a goroutine and returns a
// channel with the outcome.
type runResult struct {
	res *Results
	err error
}

func submitAsync(c *Coordinator, pts []Point) chan runResult {
	ch := make(chan runResult, 1)
	before := c.Status().PendingShards
	go func() {
		res, err := c.RunPoints(pts, nil)
		ch <- runResult{res, err}
	}()
	// Planning is synchronous inside RunPoints; wait until this job's
	// shards are visibly queued so tests can lease deterministically.
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
		if c.Status().PendingShards > before {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return ch
}

func testPoints(n int) []Point {
	g := Grid{Workloads: []string{"go", "tomcatv", "listwalk"}, Policies: []string{"conv", "extended"},
		IntRegs: []int{40, 48, 56, 64, 72, 80, 96, 128}, Scale: 1000}
	pts := g.Expand()
	if len(pts) < n {
		panic("test grid too small")
	}
	return pts[:n]
}

// fakeOutcomes fabricates a syntactically valid completion for a grant.
func fakeOutcomes(grant *LeaseGrant) []WireOutcome {
	out := make([]WireOutcome, len(grant.Items))
	for i, it := range grant.Items {
		out[i] = WireOutcome{Key: it.Key, Err: "fabricated for test"}
	}
	return out
}

// TestLeaseLifecycle walks the happy path by hand: register, lease,
// complete with errors, job finishes.
func TestLeaseLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4}})
	rep, err := c.RegisterWorker("w1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeaseTTL != time.Minute || rep.WorkerID == "" {
		t.Fatalf("register reply: %+v", rep)
	}

	pts := testPoints(6)
	done := submitAsync(c, pts)

	var leased int
	for {
		grant, err := c.LeaseShard(rep.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		if grant == nil {
			break
		}
		if grant.Attempt != 1 || grant.TTL != time.Minute {
			t.Fatalf("grant: %+v", grant)
		}
		leased += len(grant.Items)
		if err := c.CompleteShard(&CompleteRequest{LeaseID: grant.LeaseID,
			WorkerID: rep.WorkerID, Outcomes: fakeOutcomes(grant)}); err != nil {
			t.Fatal(err)
		}
	}
	if leased != len(pts) {
		t.Fatalf("leased %d points, want %d", leased, len(pts))
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.res.Stats.Errors != len(pts) || r.res.Stats.CacheHits != 0 {
		t.Fatalf("stats: %+v", r.res.Stats)
	}
	st := c.Status()
	if len(st.Workers) != 1 || st.Workers[0].ShardsDone == 0 || st.Workers[0].PointsDone != len(pts) {
		t.Fatalf("worker status: %+v", st.Workers)
	}
}

// TestLeaseExpiryRequeues proves the failure model's first leg: a
// worker that goes silent loses its lease after the TTL and the shard
// is re-granted, with the attempt counter advancing.
func TestLeaseExpiryRequeues(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 8}})
	dead, _ := c.RegisterWorker("dead")

	// One registered worker at submit time → one shard for the grid.
	pts := testPoints(4)
	done := submitAsync(c, pts)
	live, _ := c.RegisterWorker("live")

	grant, err := c.LeaseShard(dead.WorkerID)
	if err != nil || grant == nil {
		t.Fatalf("first lease: %v %v", grant, err)
	}
	// The queue is empty while the lease is healthy.
	if g2, _ := c.LeaseShard(live.WorkerID); g2 != nil {
		t.Fatalf("second worker got a duplicate lease: %+v", g2)
	}

	// Renewal holds the lease across a TTL boundary — but only for the
	// worker that holds it: anybody else is rejected outright.
	clk.advance(45 * time.Second)
	if err := c.RenewLease(live.WorkerID, grant.LeaseID); !errors.Is(err, ErrWrongWorker) {
		t.Fatalf("foreign renewal: %v", err)
	}
	if err := c.RenewLease(dead.WorkerID, grant.LeaseID); err != nil {
		t.Fatal(err)
	}
	clk.advance(45 * time.Second)
	if g2, _ := c.LeaseShard(live.WorkerID); g2 != nil {
		t.Fatal("renewed lease expired anyway")
	}

	// Silence past the TTL: the live worker inherits the shard.
	clk.advance(61 * time.Second)
	g2, err := c.LeaseShard(live.WorkerID)
	if err != nil || g2 == nil {
		t.Fatalf("expiry did not requeue: %v %v", g2, err)
	}
	if g2.ShardID != grant.ShardID || g2.Attempt != 2 {
		t.Fatalf("requeued grant: %+v (original %+v)", g2, grant)
	}

	// The dead worker's late completion is rejected as stale…
	err = c.CompleteShard(&CompleteRequest{LeaseID: grant.LeaseID,
		WorkerID: dead.WorkerID, Outcomes: fakeOutcomes(grant)})
	if !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale completion: %v", err)
	}
	// …and a completion from the wrong worker too.
	err = c.CompleteShard(&CompleteRequest{LeaseID: g2.LeaseID,
		WorkerID: dead.WorkerID, Outcomes: fakeOutcomes(g2)})
	if !errors.Is(err, ErrWrongWorker) {
		t.Fatalf("wrong-worker completion: %v", err)
	}

	if err := c.CompleteShard(&CompleteRequest{LeaseID: g2.LeaseID,
		WorkerID: live.WorkerID, Outcomes: fakeOutcomes(g2)}); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil {
		t.Fatal(r.err)
	}
	st := c.Status()
	for _, w := range st.Workers {
		if w.Name == "dead" && w.Expiries != 1 {
			t.Errorf("dead worker expiries: %+v", w)
		}
	}
}

// TestMaxAttemptsAbandons proves shards cannot requeue forever: after
// MaxAttempts burned leases the points fail with error outcomes and
// the job completes.
func TestMaxAttemptsAbandons(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, MaxAttempts: 2,
		Planner: ShardPlanner{MaxPoints: 8}})
	w, _ := c.RegisterWorker("flaky")
	pts := testPoints(3)
	done := submitAsync(c, pts)

	for attempt := 1; attempt <= 2; attempt++ {
		grant, err := c.LeaseShard(w.WorkerID)
		if err != nil || grant == nil {
			t.Fatalf("attempt %d: %v %v", attempt, grant, err)
		}
		if grant.Attempt != attempt {
			t.Fatalf("attempt %d numbered %d", attempt, grant.Attempt)
		}
		clk.advance(2 * time.Minute) // never complete, let it expire
	}
	// Third lease request reaps the exhausted shard instead of granting.
	if grant, _ := c.LeaseShard(w.WorkerID); grant != nil {
		t.Fatalf("abandoned shard granted again: %+v", grant)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.res.Stats.Errors != len(pts) {
		t.Fatalf("stats after abandonment: %+v", r.res.Stats)
	}
	for _, o := range r.res.Outcomes {
		if !strings.Contains(o.Err, "abandoned after 2 burned leases") {
			t.Fatalf("outcome error: %q", o.Err)
		}
	}
}

// TestBadPayloadsExhaustAttempts closes the other requeue loop: a
// worker that persistently reports verification-failing completions
// burns the shard's MaxAttempts budget exactly like expiries do, so
// the job fails its points instead of cycling forever.
func TestBadPayloadsExhaustAttempts(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, MaxAttempts: 3,
		Planner: ShardPlanner{MaxPoints: 8}})
	w, _ := c.RegisterWorker("garbage")
	done := submitAsync(c, testPoints(2))

	for attempt := 1; attempt <= 3; attempt++ {
		grant, err := c.LeaseShard(w.WorkerID)
		if err != nil || grant == nil {
			t.Fatalf("attempt %d: %v %v", attempt, grant, err)
		}
		req := &CompleteRequest{LeaseID: grant.LeaseID, WorkerID: w.WorkerID,
			Outcomes: fakeOutcomes(grant)}
		req.Outcomes[0].Key = "deadbeef"
		if err := c.CompleteShard(req); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
	}
	if grant, _ := c.LeaseShard(w.WorkerID); grant != nil {
		t.Fatalf("exhausted shard granted again: %+v", grant)
	}
	r := <-done
	if r.err != nil || r.res.Stats.Errors != 2 {
		t.Fatalf("job after persistent garbage: %v %+v", r.err, r.res.Stats)
	}
}

// TestWorkerRegistryExpiry ages silent, lease-free workers out of the
// registry so dead registrations stop inflating shard planning.
func TestWorkerRegistryExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute})
	gone, _ := c.RegisterWorker("gone")
	stay, _ := c.RegisterWorker("stay")
	if n := len(c.Status().Workers); n != 2 {
		t.Fatalf("%d workers registered", n)
	}

	// Heartbeats keep a worker alive across the expiry horizon…
	clk.advance(8 * time.Minute)
	if err := c.HeartbeatWorker(stay.WorkerID, TraceCache{}); err != nil {
		t.Fatal(err)
	}
	clk.advance(8 * time.Minute) // 16min > 10×TTL since `gone` was seen
	st := c.Status()
	if len(st.Workers) != 1 || st.Workers[0].Name != "stay" {
		t.Fatalf("registry after expiry: %+v", st.Workers)
	}
	// …and the departed worker's lease calls now demand re-registration.
	if _, err := c.LeaseShard(gone.WorkerID); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("aged-out worker leased: %v", err)
	}
}

// TestCompletionVerification rejects every malformed payload shape and
// proves rejection requeues the shard promptly and never caches.
func TestCompletionVerification(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 8}})
	w, _ := c.RegisterWorker("evil")
	pts := testPoints(2)
	done := submitAsync(c, pts)

	bad := []struct {
		name string
		mut  func(req *CompleteRequest)
	}{
		{"wrong key", func(req *CompleteRequest) { req.Outcomes[0].Key = "deadbeef" }},
		{"swapped keys", func(req *CompleteRequest) {
			req.Outcomes[0].Key, req.Outcomes[1].Key = req.Outcomes[1].Key, req.Outcomes[0].Key
		}},
		{"short", func(req *CompleteRequest) { req.Outcomes = req.Outcomes[:1] }},
		{"result and error both missing", func(req *CompleteRequest) { req.Outcomes[0].Err = "" }},
	}
	for _, tc := range bad {
		grant, err := c.LeaseShard(w.WorkerID)
		if err != nil || grant == nil {
			t.Fatalf("%s: lease: %v %v", tc.name, grant, err)
		}
		if len(grant.Items) != 2 {
			t.Fatalf("%s: %d items", tc.name, len(grant.Items))
		}
		req := &CompleteRequest{LeaseID: grant.LeaseID, WorkerID: w.WorkerID,
			Outcomes: fakeOutcomes(grant)}
		tc.mut(req)
		if err := c.CompleteShard(req); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("%s: want ErrBadPayload, got %v", tc.name, err)
		}
		// Rejection must have requeued immediately — the shard comes
		// right back without waiting out a TTL.
	}
	if c.cache.Len() != 0 {
		t.Fatalf("rejected payloads reached the cache: %d entries", c.cache.Len())
	}

	grant, err := c.LeaseShard(w.WorkerID)
	if err != nil || grant == nil {
		t.Fatalf("final lease: %v %v", grant, err)
	}
	if err := c.CompleteShard(&CompleteRequest{LeaseID: grant.LeaseID,
		WorkerID: w.WorkerID, Outcomes: fakeOutcomes(grant)}); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil {
		t.Fatal(r.err)
	}
}

// TestLeaseTimeCacheFiltering: a point finished by one job is stripped
// from another job's already-planned shard at lease time and served
// from the cache — the queue never double-simulates a known result.
func TestLeaseTimeCacheFiltering(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 8}})
	w, _ := c.RegisterWorker("w")

	pts := testPoints(4)
	doneA := submitAsync(c, pts)
	doneB := submitAsync(c, pts) // same points: B's shard is planned while A's is in flight

	grantA, err := c.LeaseShard(w.WorkerID)
	if err != nil || grantA == nil {
		t.Fatal("no lease for job A")
	}
	// Complete A's shard with real-looking results so the cache fills.
	reqA := &CompleteRequest{LeaseID: grantA.LeaseID, WorkerID: w.WorkerID}
	eng := &Engine{}
	resA, err := eng.RunPoints(pointsOf(grantA), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range grantA.Items {
		reqA.Outcomes = append(reqA.Outcomes, WireOutcome{Key: it.Key, Result: resA.Outcomes[i].Result})
	}
	if err := c.CompleteShard(reqA); err != nil {
		t.Fatal(err)
	}
	rA := <-doneA
	if rA.err != nil || rA.res.Stats.Simulated != 4 {
		t.Fatalf("job A: %v %+v", rA.err, rA.res.Stats)
	}

	// Job B's shard was planned before the cache filled; leasing it now
	// must dissolve it into cache hits, not hand out work.
	if grantB, _ := c.LeaseShard(w.WorkerID); grantB != nil {
		t.Fatalf("job B's shard survived the cache: %+v", grantB)
	}
	rB := <-doneB
	if rB.err != nil {
		t.Fatal(rB.err)
	}
	if rB.res.Stats.CacheHits != 4 || rB.res.Stats.Simulated != 0 {
		t.Fatalf("job B stats: %+v", rB.res.Stats)
	}
	for i, o := range rB.res.Outcomes {
		if o.Result == nil || o.Result != rA.res.Outcomes[i].Result {
			t.Fatalf("job B outcome %d not served from the shared cache", i)
		}
	}
}

func pointsOf(grant *LeaseGrant) []Point {
	pts := make([]Point, len(grant.Items))
	for i, it := range grant.Items {
		pts[i] = it.Point
	}
	return pts
}

// TestCoordinatorClose aborts queued jobs instead of hanging forever.
func TestCoordinatorClose(t *testing.T) {
	c := NewCoordinator(nil, CoordConfig{LeaseTTL: time.Minute})
	done := submitAsync(c, testPoints(2))
	c.Close()
	select {
	case r := <-done:
		if !errors.Is(r.err, ErrClosed) {
			t.Fatalf("closed coordinator returned %v", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not abort on Close")
	}
	if _, err := c.RunPoints(testPoints(1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestWorkerAgainstCoordinator runs the real worker loop in-process
// against a coordinator and checks the federated results equal a
// direct engine run bit for bit.
func TestWorkerAgainstCoordinator(t *testing.T) {
	c := newTestCoordinator(t, nil, CoordConfig{LeaseTTL: 30 * time.Second,
		Planner: ShardPlanner{MaxPoints: 4}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &Worker{Source: c, Poll: 2 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	defer wg.Wait()
	defer cancel()

	g := Grid{Workloads: []string{"go", "listwalk"}, Policies: []string{"conv", "extended"},
		IntRegs: []int{40, 48}, Scale: 5000}
	res, err := c.RunPoints(g.Expand(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	direct, err := (&Engine{Cache: NewCache()}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		want := direct.Outcomes[i]
		if o.Point != want.Point || o.Key != want.Key {
			t.Fatalf("outcome %d ordering drifted", i)
		}
		if !reflect.DeepEqual(o.Result, want.Result) {
			t.Errorf("%s: federated result differs from direct engine run", o.Point)
		}
	}
	// Warm resubmission is all cache hits.
	res2, err := c.RunPoints(g.Expand(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.CacheHits != res2.Stats.Points {
		t.Fatalf("warm federated run: %+v", res2.Stats)
	}
}
