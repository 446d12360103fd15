package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"earlyrelease/internal/experiments"
	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/release"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/workloads"
)

// newFedServer starts a coordinator with an explicit config plus n
// HTTP workers joined through the real client, wire codec and worker
// loop — the same path `sweepd -role worker -join` takes.
func newFedServer(t *testing.T, cfg ServerConfig, nWorkers int) *httptest.Server {
	t.Helper()
	srv := NewServerWith(cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		w := &sweep.Worker{
			Source: sweep.NewClient(ts.URL),
			Name:   "httpw",
			Engine: &sweep.Engine{Parallel: 2},
			Poll:   2 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })
	return ts
}

// acceptanceGrid is the federation acceptance grid: 3 workloads × 2
// policies × 2 register files × 4 two-valued machine axes = 192
// points, listwalk included so shard balancing is actually exercised.
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

// TestFederationEndToEnd is the acceptance suite: an httptest
// coordinator with NO local workers and 3 HTTP workers runs the
// 192-point grid; results must be byte-identical to direct local
// execution, every worker must have participated, and a warm
// resubmission is 100% coordinator-cache hits.
func TestFederationEndToEnd(t *testing.T) {
	ts := newFedServer(t, ServerConfig{
		LocalWorkers: -1, // federation only: the work must cross HTTP
		LeaseTTL:     30 * time.Second,
		Planner:      sweep.ShardPlanner{MaxPoints: 8},
	}, 3)

	g := acceptanceGrid(testScale)
	pts := g.Expand()
	if len(pts) != 192 {
		t.Fatalf("acceptance grid expands to %d points, want 192", len(pts))
	}

	job := pollDone(t, ts, postGrid(t, ts, g))
	if job.Err != "" {
		t.Fatalf("federated sweep failed: %s", job.Err)
	}
	if n := len(job.Results.Outcomes); n != 192 {
		t.Fatalf("%d outcomes, want 192", n)
	}
	if job.Results.Stats.Errors != 0 || job.Results.Stats.Simulated != 192 {
		t.Fatalf("cold federated stats: %+v", job.Results.Stats)
	}

	// Byte-identical to direct in-process execution, point for point.
	direct, err := (&sweep.Engine{Cache: sweep.NewCache()}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range job.Results.Outcomes {
		want := direct.Outcomes[i]
		if o.Point != want.Point {
			t.Fatalf("outcome %d ordering drifted: %s vs %s", i, o.Point, want.Point)
		}
		gotJSON, _ := json.Marshal(o.Result)
		wantJSON, _ := json.Marshal(want.Result)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: federated result not byte-identical to local run\n fed: %s\n loc: %s",
				o.Point, gotJSON, wantJSON)
		}
	}

	// Spot-check the baseline-machine points against experiments.Run,
	// the figure drivers' direct entry.
	w, err := workloads.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []release.Kind{release.Conventional, release.Extended} {
		res, err := experiments.Run(w, pol, 48, 48, experiments.Options{Scale: testScale})
		if err != nil {
			t.Fatal(err)
		}
		pt := sweep.Point{Workload: "tomcatv", Policy: pol.String(),
			IntRegs: 48, FPRegs: 48, Scale: testScale}
		if got := job.Results.Result(pt); !reflect.DeepEqual(got, res) {
			t.Errorf("%s: federated result differs from experiments.Run", pt)
		}
	}

	// All three workers pulled their weight.
	var ws []sweep.WorkerStatus
	resp, err := http.Get(ts.URL + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&ws)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("%d workers registered, want 3", len(ws))
	}
	total := 0
	for _, w := range ws {
		if w.PointsDone == 0 {
			t.Errorf("worker %s (%s) did no work", w.ID, w.Name)
		}
		total += w.PointsDone
	}
	if total != 192 {
		t.Errorf("workers completed %d points in sum, want 192", total)
	}

	// Warm resubmission: the coordinator serves everything from cache.
	warm := pollDone(t, ts, postGrid(t, ts, g))
	if warm.Results.Stats.CacheHits != 192 || warm.Results.Stats.Simulated != 0 {
		t.Fatalf("warm resubmission stats: %+v", warm.Results.Stats)
	}
}

// TestFederationChaos is the failure-model suite: one worker takes a
// lease and dies, a hostile client corrupts a completion payload (bit
// flips and swapped keys), and the sweep must still finish with
// results identical to a local run — leases expire and requeue, bad
// payloads bounce off verification, and the cache is never poisoned.
func TestFederationChaos(t *testing.T) {
	srvCfg := ServerConfig{
		LocalWorkers: -1,
		LeaseTTL:     400 * time.Millisecond,
		MaxAttempts:  10,
		Planner:      sweep.ShardPlanner{MaxPoints: 4},
	}
	srv := NewServerWith(srvCfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := sweep.NewClient(ts.URL)

	g := sweep.Grid{
		Workloads: []string{"go", "listwalk"},
		Policies:  []string{"conv", "extended"},
		IntRegs:   []int{40, 48, 64},
		Scale:     5000,
	}
	id := postGrid(t, ts, g)
	// Submission plans asynchronously; wait until shards are queued so
	// the chaos actors can lease deterministically.
	for end := time.Now().Add(5 * time.Second); ; {
		if srv.Coordinator().Status().PendingShards > 0 {
			break
		}
		if time.Now().After(end) {
			t.Fatal("sweep never queued shards")
		}
		time.Sleep(time.Millisecond)
	}

	// Chaos actor 1: a worker that leases a shard and is killed — it
	// never completes, never renews.
	dead, err := client.RegisterWorker("doomed")
	if err != nil {
		t.Fatal(err)
	}
	killedGrant, err := client.LeaseShard(dead.WorkerID)
	if err != nil || killedGrant == nil {
		t.Fatalf("doomed worker got no lease: %v %v", killedGrant, err)
	}

	// Chaos actor 2: leases a shard and reports garbage three ways.
	evil, err := client.RegisterWorker("evil")
	if err != nil {
		t.Fatal(err)
	}
	evilGrant, err := client.LeaseShard(evil.WorkerID)
	if err != nil || evilGrant == nil {
		t.Fatalf("evil worker got no lease: %v %v", evilGrant, err)
	}
	poisoned := pipeline.Result{Name: "poison", IPC: -42}
	poison := &sweep.CompleteRequest{LeaseID: evilGrant.LeaseID, WorkerID: evil.WorkerID}
	for _, it := range evilGrant.Items {
		r := poisoned
		poison.Outcomes = append(poison.Outcomes, sweep.WireOutcome{Key: it.Key, Result: &r})
	}
	// (a) Bit-flipped frame: the wire checksum rejects it at decode.
	frame, err := sweep.EncodeMessage(poison)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(frame)
	flipped[len(flipped)/2] ^= 0xFF
	if status, body := postRaw(t, ts, "/work/complete", flipped); status != http.StatusBadRequest ||
		!strings.Contains(body, "checksum") {
		t.Fatalf("bit-flipped payload: status %d body %s", status, body)
	}
	// (b) Swapped keys: a structurally valid frame whose results are
	// labeled with the wrong content keys — key verification rejects it.
	if len(poison.Outcomes) < 2 {
		t.Fatalf("evil shard too small to swap keys: %d items", len(poison.Outcomes))
	}
	swapped := *poison
	swapped.Outcomes = append([]sweep.WireOutcome(nil), poison.Outcomes...)
	swapped.Outcomes[0].Key, swapped.Outcomes[1].Key = swapped.Outcomes[1].Key, swapped.Outcomes[0].Key
	frame2, err := sweep.EncodeMessage(&swapped)
	if err != nil {
		t.Fatal(err)
	}
	if status, body := postRaw(t, ts, "/work/complete", frame2); status != http.StatusBadRequest ||
		!strings.Contains(body, "does not match planned key") {
		t.Fatalf("swapped-key payload: status %d body %s", status, body)
	}
	// (c) Stale lease after the rejection requeued the shard.
	if err := client.CompleteShard(poison); err == nil {
		t.Fatal("completion on a burned lease accepted")
	}

	// Two healthy workers clean up after the chaos.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &sweep.Worker{Source: client, Name: "healthy",
			Engine: &sweep.Engine{Parallel: 2}, Poll: 2 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })

	job := pollDone(t, ts, id)
	if job.Err != "" {
		t.Fatalf("chaos sweep failed: %s", job.Err)
	}
	if job.Results.Stats.Errors != 0 {
		t.Fatalf("chaos sweep stats: %+v", job.Results.Stats)
	}

	// The doomed worker's lease expired and its shard was requeued. (If
	// the run outlived the registry's 10×TTL worker expiry the doomed
	// entry may already have aged out — which itself requires its lease
	// to have been reaped first.)
	st := srv.Coordinator().Status()
	for _, w := range st.Workers {
		if w.Name == "doomed" {
			if w.Expiries == 0 {
				t.Errorf("doomed worker's lease never expired: %+v", w)
			}
			if w.PointsDone != 0 {
				t.Errorf("doomed worker credited with work: %+v", w)
			}
		}
	}

	// Every result — including the points the chaos actors leased — is
	// identical to a direct local run: nothing poisoned the cache.
	direct, err := (&sweep.Engine{Cache: sweep.NewCache()}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range job.Results.Outcomes {
		a, _ := json.Marshal(o.Result)
		b, _ := json.Marshal(direct.Outcomes[i].Result)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: post-chaos result drifted from direct run", o.Point)
		}
		if o.Result != nil && o.Result.IPC == poisoned.IPC {
			t.Errorf("%s: poison result reached the job", o.Point)
		}
	}
	// And the cache holds the truth for the keys the poison targeted.
	resp, err := http.Get(ts.URL + "/cache/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	corpus := map[string]pipeline.Result{}
	dec := json.NewDecoder(resp.Body)
	for {
		var rec struct {
			Key    string
			Result pipeline.Result
		}
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode cache export: %v", err)
		}
		corpus[rec.Key] = rec.Result
	}
	for _, it := range evilGrant.Items {
		got, ok := corpus[it.Key]
		if !ok || got.IPC == poisoned.IPC || got.IPC <= 0 {
			t.Errorf("cache entry for %s poisoned or missing: present=%v IPC=%v", it.Point, ok, got.IPC)
		}
	}
}

// TestFederationChaosDrain is the drained-worker case: an HTTP worker
// is context-canceled (the SIGTERM path) partway through a leased
// shard. The cancellation must stop the engine at point granularity,
// the partial completion must never be reported, and the lapsed lease
// must requeue the shard for a healthy worker — with final results
// identical to a direct local run.
func TestFederationChaosDrain(t *testing.T) {
	srv := NewServerWith(ServerConfig{
		LocalWorkers: -1,
		LeaseTTL:     300 * time.Millisecond,
		MaxAttempts:  10,
		Planner:      sweep.ShardPlanner{MaxPoints: 8},
	})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// One shard of points slow enough (tens of ms each on one core)
	// that the drain reliably lands mid-shard.
	g := sweep.Grid{Workloads: []string{"tomcatv", "go"}, Policies: []string{"conv", "extended"},
		IntRegs: []int{40, 48}, Scale: testScale}
	id := postGrid(t, ts, g)

	drainCtx, drain := context.WithCancel(context.Background())
	drained := &sweep.Worker{Source: sweep.NewClient(ts.URL), Name: "draining",
		Engine: &sweep.Engine{Parallel: 1}, Poll: 2 * time.Millisecond}
	drainedDone := make(chan struct{})
	go func() { defer close(drainedDone); drained.Run(drainCtx) }()

	// Wait for the lease to be visibly held, then drain mid-shard.
	for end := time.Now().Add(5 * time.Second); srv.Coordinator().Status().ActiveLeases == 0; {
		if time.Now().After(end) {
			t.Fatal("draining worker never leased the shard")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	drain()
	select {
	case <-drainedDone:
	case <-time.After(5 * time.Second):
		t.Fatal("drained worker did not exit promptly")
	}
	if job, ok := srv.snapshot(id); !ok || job.State != "running" {
		t.Fatalf("sweep state %+v after drain; want still running", job)
	}

	ctx, cancel := context.WithCancel(context.Background())
	healthy := &sweep.Worker{Source: sweep.NewClient(ts.URL), Name: "healthy",
		Engine: &sweep.Engine{Parallel: 2}, Poll: 2 * time.Millisecond}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); healthy.Run(ctx) }()
	t.Cleanup(func() { cancel(); wg.Wait() })

	job := pollDone(t, ts, id)
	if job.Err != "" || job.Results.Stats.Errors != 0 {
		t.Fatalf("post-drain sweep: err=%q stats=%+v", job.Err, job.Results.Stats)
	}
	if n := srv.Coordinator().Counters().LeaseExpiries; n == 0 {
		t.Error("drained worker's lease never expired")
	}
	direct, err := (&sweep.Engine{Cache: sweep.NewCache()}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range job.Results.Outcomes {
		a, _ := json.Marshal(o.Result)
		b, _ := json.Marshal(direct.Outcomes[i].Result)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: post-drain result drifted from direct run", o.Point)
		}
	}
}

func postRaw(t *testing.T, ts *httptest.Server, path string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// streamHandlers counts live handleStream goroutines by stack
// inspection — precise, immune to unrelated goroutine churn.
func streamHandlers() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), ").handleStream")
}

// TestStreamClientDisconnectReleasesHandler proves an abandoned NDJSON
// stream releases its handler goroutine promptly — while the sweep is
// still running — instead of riding along until the sweep finishes.
func TestStreamClientDisconnectReleasesHandler(t *testing.T) {
	// No workers: the sweep genuinely never finishes, so a handler that
	// only exits on sweep completion would be caught red-handed.
	srv := NewServerWith(ServerConfig{LocalWorkers: -1})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	g := sweep.Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
		IntRegs: []int{48}, Scale: testScale}
	id := postGrid(t, ts, g)

	const streams = 8
	ctx, cancel := context.WithCancel(context.Background())
	var resps []*http.Response
	for i := 0; i < streams; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/sweep/"+id+"/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, resp)
		// Read the first snapshot so the handler is known to be live.
		if !bufio.NewScanner(resp.Body).Scan() {
			t.Fatal("no first stream line")
		}
	}
	if n := streamHandlers(); n != streams {
		t.Fatalf("%d live stream handlers, want %d", n, streams)
	}

	// Abandon every stream.
	cancel()
	for _, r := range resps {
		r.Body.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for streamHandlers() != 0 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("stream handlers leaked after client disconnect:\n%s", buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The sweep is still running — the handlers left early, as they must.
	if job, ok := srv.snapshot(id); !ok || job.State != "running" {
		t.Fatalf("sweep state %+v; the test lost its premise", job)
	}
}
