package sweep

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"earlyrelease/internal/obs"
)

// runTracedAsync is submitAsync under a caller-chosen trace id (and a
// label, so durable coordinators journal the spans).
func runTracedAsync(c *Coordinator, traceID, label string, pts []Point) chan runResult {
	ch := make(chan runResult, 1)
	before := c.Status().PendingShards
	go func() {
		res, err := c.RunJob(traceID, label, json.RawMessage(`{"test":true}`), pts, nil)
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

// spanNames counts a timeline's spans by name.
func spanNames(tl obs.Timeline) map[string]int {
	names := map[string]int{}
	for _, s := range tl.Spans {
		names[s.Name]++
	}
	return names
}

// TestTraceExpiryRequeueTimeline is the chaos case the tracing layer
// exists for: a worker takes a lease and dies, the TTL reaps it, a
// second worker retries and completes — and the job's single timeline
// must tell that whole story: both lease grants, the expiry attributed
// to the dead worker, the requeue, and the completion on the survivor.
func TestTraceExpiryRequeueTimeline(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4}})
	w1, _ := c.RegisterWorker("doomed")

	// One registered worker at submit time → one shard for the grid;
	// the survivor joins after planning.
	done := runTracedAsync(c, "tr-chaos", "", testPoints(3))
	w2, _ := c.RegisterWorker("survivor")

	g1, err := c.LeaseShard(w1.WorkerID)
	if err != nil || g1 == nil {
		t.Fatalf("first lease: %+v %v", g1, err)
	}
	if g1.TraceID != "tr-chaos" {
		t.Fatalf("lease carries trace %q, want tr-chaos", g1.TraceID)
	}

	// The worker dies: no renewals, the clock outruns the TTL, and the
	// next lease call reaps and requeues.
	clk.advance(2 * time.Minute)
	g2, err := c.LeaseShard(w2.WorkerID)
	if err != nil || g2 == nil {
		t.Fatalf("retry lease: %+v %v", g2, err)
	}
	if g2.ShardID != g1.ShardID || g2.Attempt != 2 {
		t.Fatalf("retry grant: %+v", g2)
	}
	if err := c.CompleteShard(&CompleteRequest{LeaseID: g2.LeaseID,
		WorkerID: w2.WorkerID, Outcomes: fakeOutcomes(g2)}); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil {
		t.Fatal(r.err)
	}

	tl, ok := c.Timeline("tr-chaos")
	if !ok {
		t.Fatal("no timeline for tr-chaos")
	}
	names := spanNames(tl)
	for name, want := range map[string]int{
		"submit": 1, "plan": 1, "shard": 1, "lease": 2,
		"expire": 1, "requeue": 1, "complete": 1, "done": 1,
	} {
		if names[name] != want {
			t.Errorf("span %q: %d occurrences, want %d (timeline:\n%s)",
				name, names[name], want, tl.Render())
		}
	}
	for _, s := range tl.Spans {
		switch s.Name {
		case "expire":
			if s.Worker != w1.WorkerID {
				t.Errorf("expire attributed to %q, want the dead worker %q", s.Worker, w1.WorkerID)
			}
		case "complete":
			if s.Worker != w2.WorkerID {
				t.Errorf("complete attributed to %q, want the retry worker %q", s.Worker, w2.WorkerID)
			}
		case "requeue", "shard":
			if s.Ref != g1.ShardID {
				t.Errorf("%s ref %q, want shard %q", s.Name, s.Ref, g1.ShardID)
			}
		}
	}
}

// TestTraceSurvivesHaltReopen pins span durability: a hard halt
// mid-job must not lose the timeline — the reopened coordinator serves
// the pre-crash spans (journaled per-span, no snapshot involved) and
// the resumed job extends the same timeline to its done span, exactly
// once.
func TestTraceSurvivesHaltReopen(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4}, StateDir: dir}
	c1 := openTestCoordinator(t, clk, cfg)
	w1, _ := c1.RegisterWorker("w1")

	pts := testPoints(8)
	done := runTracedAsync(c1, "tr-dur", "sw-1", pts)

	g1, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g1 == nil {
		t.Fatalf("first lease: %+v %v", g1, err)
	}
	completeWithEngine(t, c1, w1.WorkerID, g1)

	c1.Halt()
	if r := <-done; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("halted waiter: %v", r.err)
	}

	c2 := openTestCoordinator(t, clk, cfg)
	rec := c2.Recovered()
	if len(rec) != 1 || rec[0].Trace != "tr-dur" {
		t.Fatalf("recovered: %+v", rec)
	}
	tl, ok := c2.Timeline("tr-dur")
	if !ok {
		t.Fatal("timeline lost across halt/reopen")
	}
	names := spanNames(tl)
	if names["submit"] != 1 || names["plan"] != 1 || names["shard"] != 2 ||
		names["complete"] != 1 || names["done"] != 0 {
		t.Fatalf("replayed timeline wrong:\n%s", tl.Render())
	}

	resumed := make(chan runResult, 1)
	go func() {
		res, err := c2.ResumeRecovered("sw-1", nil)
		resumed <- runResult{res, err}
	}()
	w2, _ := c2.RegisterWorker("w2")
	g2, err := c2.LeaseShard(w2.WorkerID)
	if err != nil || g2 == nil {
		t.Fatalf("post-resume lease: %+v %v", g2, err)
	}
	if g2.TraceID != "tr-dur" {
		t.Fatalf("recovered shard leases under trace %q, want tr-dur", g2.TraceID)
	}
	completeWithEngine(t, c2, w2.WorkerID, g2)
	if r := <-resumed; r.err != nil {
		t.Fatal(r.err)
	}

	tl, ok = c2.Timeline("tr-dur")
	if !ok {
		t.Fatal("timeline gone after resume")
	}
	names = spanNames(tl)
	if names["complete"] != 2 || names["done"] != 1 {
		t.Fatalf("resumed timeline: %v\n%s", names, tl.Render())
	}
	// Spans must come back ordered even though replayed and live spans
	// interleave.
	for i := 1; i < len(tl.Spans); i++ {
		if tl.Spans[i].StartNS < tl.Spans[i-1].StartNS {
			t.Fatalf("resumed timeline out of order at %d:\n%s", i, tl.Render())
		}
	}
}

// TestTraceResultsByteIdentical is the tentpole's hard constraint:
// tracing instruments orchestration only, so a traced federation run
// must produce outcome JSON byte-identical to a plain in-process
// engine run of the same points.
func TestTraceResultsByteIdentical(t *testing.T) {
	c := newTestCoordinator(t, nil, CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4}})
	w1, _ := c.RegisterWorker("w1")

	pts := testPoints(6)
	done := runTracedAsync(c, "tr-ident", "", pts)
	for {
		g, err := c.LeaseShard(w1.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			break
		}
		completeWithEngine(t, c, w1.WorkerID, g)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	direct, err := (&Engine{Cache: NewCache()}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.res.Outcomes) != len(direct.Outcomes) {
		t.Fatalf("outcome count: %d vs %d", len(r.res.Outcomes), len(direct.Outcomes))
	}
	for i := range direct.Outcomes {
		a, _ := json.Marshal(r.res.Outcomes[i].Result)
		b, _ := json.Marshal(direct.Outcomes[i].Result)
		if string(a) != string(b) {
			t.Fatalf("outcome %d diverged with tracing on:\n traced: %s\n direct: %s", i, a, b)
		}
	}
	if _, ok := c.Timeline("tr-ident"); !ok {
		t.Fatal("timeline missing after identical-results run")
	}
}
