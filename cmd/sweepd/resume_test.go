package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"earlyrelease/internal/search"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/sweep/durable"
)

// resumeConfig is the durable-coordinator config the restart tests
// share: no embedded workers (all progress is test-controlled), small
// shards, a short TTL so leases orphaned by the "crash" expire fast.
func resumeConfig(dir string) ServerConfig {
	return ServerConfig{
		LocalWorkers: -1,
		LeaseTTL:     time.Second,
		Planner:      sweep.ShardPlanner{MaxPoints: 4},
		StateDir:     dir,
	}
}

// openResumeServer opens a durable server on dir with a fresh
// in-memory cache — cold on purpose, so everything a restarted server
// knows provably came out of the journal, not a surviving cache.
func openResumeServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := OpenServerWith(resumeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// attachWorkers joins n HTTP workers (the sweepd -role worker path)
// and returns a stop function that waits them out.
func attachWorkers(t *testing.T, url, name string, n int) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &sweep.Worker{
			Source:   sweep.NewClient(url),
			Name:     name,
			Parallel: 2,
			Poll:     2 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	stop := func() { cancel(); wg.Wait() }
	t.Cleanup(stop)
	return stop
}

// completeGrant simulates a leased shard on eng and reports it — a
// hand-cranked worker, so tests control exactly how much progress
// exists at the moment of the crash. Like a real worker it renews the
// lease while it simulates, so a slow run (the race detector) cannot
// lose the lease to the TTL.
func completeGrant(t *testing.T, src sweep.WorkSource, eng *sweep.Engine, workerID string, grant *sweep.LeaseGrant) {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(grant.TTL / 3):
				src.RenewLease(workerID, grant.LeaseID)
			}
		}
	}()
	outs, _, err := eng.RunLease(ctx, grant)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	req := &sweep.CompleteRequest{LeaseID: grant.LeaseID, WorkerID: workerID, Outcomes: outs}
	if err := src.CompleteShard(req); err != nil {
		t.Fatal(err)
	}
}

func fedStatus(t *testing.T, ts *httptest.Server) sweep.FederationStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/federation")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st sweep.FederationStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// runResumeScenario drives the shared kill-and-resume script: submit
// the 192-point acceptance grid, hand-complete nShards shards, crash
// (the variant hook), reopen from the same state dir, finish on fresh
// HTTP workers, and assert (a) the sweep resurfaced under its original
// id with the pre-crash completions intact, (b) the final results are
// byte-identical to an uninterrupted direct run, and (c) the fresh
// workers simulated only the remainder — completed shards were served
// from recovered state, not re-run.
func runResumeScenario(t *testing.T, nShards int, crash func(srv *Server, ts *httptest.Server, dir string)) {
	dir := t.TempDir()
	g := acceptanceGrid(testScale)
	total := len(g.Expand())

	srv1, ts1 := openResumeServer(t, dir)
	id := postGrid(t, ts1, g)
	if id != "sw-1" {
		t.Fatalf("sweep id %q, want sw-1", id)
	}

	// POST /sweep answers before the job's goroutine has queued its
	// shards; the coordinator queues them all in one step, so wait for
	// the first one before leasing.
	deadline := time.Now().Add(10 * time.Second)
	for srv1.Coordinator().Status().PendingShards == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sw-1 queued no shards")
		}
		time.Sleep(time.Millisecond)
	}

	client := sweep.NewClient(ts1.URL)
	reg, err := client.RegisterWorker("manual")
	if err != nil {
		t.Fatal(err)
	}
	eng := &sweep.Engine{Parallel: 2}
	for i := 0; i < nShards; i++ {
		grant, err := client.LeaseShard(reg.WorkerID)
		if err != nil || grant == nil {
			t.Fatalf("lease %d: grant=%v err=%v", i, grant, err)
		}
		completeGrant(t, client, eng, reg.WorkerID, grant)
	}
	// One more shard leased but never completed: the crash strands it
	// mid-flight and the restarted coordinator must requeue it via TTL.
	if _, err := client.LeaseShard(reg.WorkerID); err != nil {
		t.Fatal(err)
	}
	done := nShards * 4

	crash(srv1, ts1, dir)

	srv2, ts2 := openResumeServer(t, dir)
	t.Cleanup(srv2.Close)
	rec := srv2.Coordinator().Recovered()
	if len(rec) != 1 || rec[0].Label != "sw-1" || rec[0].Total != total || rec[0].Done != done {
		t.Fatalf("recovered jobs: %+v (want sw-1 %d/%d)", rec, done, total)
	}
	if n := srv2.Coordinator().Cache().Len(); n != done {
		t.Fatalf("recovered cache holds %d results, want %d", n, done)
	}

	mid, ok := srv2.snapshot("sw-1")
	if !ok || mid.State != "running" || mid.Progress.Done != done {
		t.Fatalf("resurfaced job: ok=%v state=%s progress=%+v", ok, mid.State, mid.Progress)
	}

	attachWorkers(t, ts2.URL, "fresh", 2)
	job := pollDone(t, ts2, "sw-1")
	if job.Err != "" {
		t.Fatalf("resumed sweep failed: %s", job.Err)
	}
	if job.Results.Stats.Simulated != total || job.Results.Stats.Errors != 0 {
		t.Fatalf("resumed stats: %+v", job.Results.Stats)
	}

	direct, err := (&sweep.Engine{Cache: sweep.NewCache()}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(job.Results.Outcomes)
	want, _ := json.Marshal(direct.Outcomes)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed results are not byte-identical to an uninterrupted run")
	}

	// Zero re-simulation: everything the post-crash fleet executed is
	// accounted under the fresh workers, and it is exactly the points
	// that were not yet complete at the crash.
	st := fedStatus(t, ts2)
	fresh := 0
	for _, w := range st.Workers {
		fresh += w.PointsDone
	}
	if fresh != total-done {
		t.Fatalf("fresh workers simulated %d points, want %d (completed shards re-ran?)",
			fresh, total-done)
	}
	if st.JournalErr != "" {
		t.Fatalf("journal degraded: %s", st.JournalErr)
	}
}

// TestServerHardKillResume is the crash variant: the coordinator is
// halted with no farewell snapshot (what SIGKILL leaves behind), the
// WAL gets a torn garbage tail on top, and the restart must rebuild
// the queue purely from WAL replay.
func TestServerHardKillResume(t *testing.T) {
	runResumeScenario(t, 6, func(srv *Server, ts *httptest.Server, dir string) {
		ts.Close()
		srv.Halt()
		f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("\x1fgarbage torn mid-record"))
		f.Close()
	})
}

// TestServerGracefulRestartResume is the SIGTERM variant: Close
// compacts the journal, so the restart replays only the records that
// rebuild the queue — the id sequence first, then one job, and the
// stranded shard's single lease; none of the run's renew or burn
// records survive.
func TestServerGracefulRestartResume(t *testing.T) {
	runResumeScenario(t, 3, func(srv *Server, ts *httptest.Server, dir string) {
		ts.Close()
		srv.Close()
		w, recs, err := durable.OpenWAL(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		count := map[byte]int{}
		for _, r := range recs {
			count[r.Type]++
		}
		// Record types (internal/sweep/journal.go): 1 job, 4 lease,
		// 5 renew, 6 burn, 9 id sequence.
		if len(recs) == 0 || recs[0].Type != 9 || count[1] != 1 || count[4] != 1 ||
			count[5] != 0 || count[6] != 0 {
			t.Fatalf("after graceful close the wal is not compacted: record counts by type %v", count)
		}
	})
}

// TestExploreResumeAcrossRestart covers both exploration recovery
// paths, for a crash (Halt) and a graceful stop (Close): a finished
// exploration serves the same GET /explore/{id} document after the
// restart, progress included, and one interrupted mid-run is
// deterministically re-run against the recovered warm cache to the
// same frontier.
func TestExploreResumeAcrossRestart(t *testing.T) {
	for _, stop := range []struct {
		name string
		stop func(*Server)
	}{{"halt", (*Server).Halt}, {"close", (*Server).Close}} {
		t.Run(stop.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := ServerConfig{LocalWorkers: 2, StateDir: dir,
				LeaseTTL: time.Second, Planner: sweep.ShardPlanner{MaxPoints: 4}}
			srv1, err := OpenServerWith(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(srv1.Handler())

			id1 := postExplore(t, ts1, exploreSpec("random"))
			if job := pollExploreDone(t, ts1, id1); job.Err != "" || job.Frontier == nil {
				t.Fatalf("exploration failed: %+v", job)
			}
			before := getRaw(t, ts1, "/explore/"+id1)

			// Second exploration dies mid-run: submit, then stop at once.
			spec2 := exploreSpec("hillclimb")
			spec2.Seed = 99
			id2 := postExplore(t, ts1, spec2)
			ts1.Close()
			stop.stop(srv1)

			srv2, err := OpenServerWith(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv2.Close)
			ts2 := httptest.NewServer(srv2.Handler())
			t.Cleanup(ts2.Close)

			if after := getRaw(t, ts2, "/explore/"+id1); !bytes.Equal(before, after) {
				t.Fatalf("finished exploration changed across restart:\nwant %s\nhave %s", before, after)
			}
			redone := pollExploreDone(t, ts2, id2)
			if redone.Err != "" || redone.Frontier == nil {
				t.Fatalf("re-run exploration failed: %+v", redone)
			}
			checkDirectFrontier(t, spec2, redone)
		})
	}
}

// checkDirectFrontier asserts that job found the frontier of an
// uninterrupted direct run of spec. Same seed, same space ⇒ the same
// frontier; work accounting differs (a warm cache turns simulations
// into hits), so only the discovered evals are compared.
func checkDirectFrontier(t *testing.T, spec search.Spec, job *exploreJob) {
	t.Helper()
	direct, err := (&search.Explorer{}).Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct.Frontier)
	got, _ := json.Marshal(job.Frontier.Frontier)
	if !bytes.Equal(want, got) {
		t.Fatalf("%s frontier diverged from a direct run:\nwant %s\nhave %s", job.ID, want, got)
	}
}

// stateFiles lists the names in a state dir.
func stateFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestExploreRecordsFollowRetention checks that the state dir keeps
// one record per retained exploration: evicting a job removes its
// record, so disk use is bounded by the retention cap.
func TestExploreRecordsFollowRetention(t *testing.T) {
	dir := t.TempDir()
	srv, err := OpenServerWith(ServerConfig{LocalWorkers: 2, StateDir: dir, RetainJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	for i := 0; i < 4; i++ {
		spec := exploreSpec("random")
		spec.Seed = int64(i + 1)
		pollExploreDone(t, ts, postExplore(t, ts, spec))
	}
	ts.Close()
	srv.Close()
	if got, want := strings.Join(stateFiles(t, dir), " "), "ex-4.json wal.log"; got != want {
		t.Fatalf("state dir holds %q, want %q", got, want)
	}
}

// TestOpenRefusesOldExploreIndex checks that a state dir written by a
// version that kept explorations in an index is refused by name and
// left byte-identical.
func TestOpenRefusesOldExploreIndex(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"explores.json":      `[{"id":"ex-1","state":"done","spec":{"seed":1}}]`,
		"frontier-ex-1.json": `{"spec":{"seed":1},"frontier":[]}`,
		"wal.log":            "journal bytes",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := OpenServerWith(resumeConfig(dir))
	if err == nil {
		srv.Close()
		t.Fatal("a state dir holding explores.json was opened")
	}
	if !strings.Contains(err.Error(), filepath.Join(dir, "explores.json")) {
		t.Fatalf("error does not name the index: %v", err)
	}
	if names := stateFiles(t, dir); len(names) != len(files) {
		t.Fatalf("state dir now holds %v", names)
	}
	for name, data := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != data {
			t.Fatalf("%s changed: %q (err %v)", name, got, err)
		}
	}
}

// TestExploreDamagedRecordsRerun plants records next to a finished
// exploration's: one whose frontier does not decode, and one whose
// frontier names a candidate outside its space, which fails the fsck.
// Both carry their spec, so a restart re-runs each to the frontier of
// a direct run, rewrites its record, and removes the temp file a
// crashed write left behind. A record with no readable id or spec
// cannot be re-run, and the restart refuses it by name.
func TestExploreDamagedRecordsRerun(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{LocalWorkers: 2, StateDir: dir}
	srv1, err := OpenServerWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	spec := exploreSpec("random")
	pollExploreDone(t, ts1, postExplore(t, ts1, spec))
	ts1.Close()
	srv1.Close()

	good, err := os.ReadFile(filepath.Join(dir, "ex-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	plant := func(id string, edit func(rec map[string]any)) {
		var rec map[string]any
		if err := json.Unmarshal(good, &rec); err != nil {
			t.Fatal(err)
		}
		rec["id"] = id
		edit(rec)
		data, _ := json.Marshal(rec)
		if err := os.WriteFile(filepath.Join(dir, id+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plant("ex-2", func(rec map[string]any) { rec["frontier"] = "garbage" })
	plant("ex-3", func(rec map[string]any) {
		evals := rec["frontier"].(map[string]any)["frontier"].([]any)
		evals[0].(map[string]any)["candidate"].(map[string]any)["int_regs"] = 72
	})
	stale := filepath.Join(dir, ".ex-3.json-12345")
	if err := os.WriteFile(stale, []byte(`{"id":`), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, err := OpenServerWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	for _, id := range []string{"ex-2", "ex-3"} {
		job := pollExploreDone(t, ts2, id)
		if job.Err != "" || job.Frontier == nil {
			t.Fatalf("re-run %s failed: %+v", id, job)
		}
		checkDirectFrontier(t, spec, job)
	}
	ts2.Close()
	srv2.Close()
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived recovery: %v", err)
	}
	for _, id := range []string{"ex-2", "ex-3"} {
		var job exploreJob
		if _, err := durable.ReadSnapshot(filepath.Join(dir, id+".json"), &job); err != nil {
			t.Fatal(err)
		}
		if job.State != "done" || search.CheckFrontier(job.Frontier) != nil {
			t.Fatalf("%s record not rewritten after its re-run: state %q", id, job.State)
		}
	}

	garbage := filepath.Join(dir, "ex-4.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if srv, err := OpenServerWith(cfg); err == nil {
		srv.Close()
		t.Fatal("an unreadable exploration record was accepted")
	} else if !strings.Contains(err.Error(), garbage) {
		t.Fatalf("error does not name the record: %v", err)
	}
}

// TestRenewWrongWorkerOverHTTP drives the lease-ownership check
// through the HTTP layer: renewing someone else's lease is a 409 and
// leaves the lease intact for its owner.
func TestRenewWrongWorkerOverHTTP(t *testing.T) {
	srv := NewServerWith(ServerConfig{LocalWorkers: -1,
		LeaseTTL: 30 * time.Second, Planner: sweep.ShardPlanner{MaxPoints: 1}})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	client := sweep.NewClient(ts.URL)
	holder, err := client.RegisterWorker("holder")
	if err != nil {
		t.Fatal(err)
	}
	impostor, err := client.RegisterWorker("impostor")
	if err != nil {
		t.Fatal(err)
	}

	postGrid(t, ts, sweep.Grid{Workloads: []string{"listwalk"},
		Policies: []string{"conv"}, IntRegs: []int{40, 48}, Scale: 4000})
	var grant *sweep.LeaseGrant
	deadline := time.Now().Add(10 * time.Second)
	for grant == nil && time.Now().Before(deadline) {
		if grant, err = client.LeaseShard(holder.WorkerID); err != nil {
			t.Fatal(err)
		}
		if grant == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if grant == nil {
		t.Fatal("no shard to lease")
	}

	body, _ := json.Marshal(map[string]string{
		"worker_id": impostor.WorkerID, "lease_id": grant.LeaseID})
	status, resp := postRaw(t, ts, "/work/renew", body)
	if status != http.StatusConflict || !strings.Contains(resp, "different worker") {
		t.Fatalf("impostor renew: status %d body %q, want 409 wrong-worker", status, resp)
	}
	if err := client.RenewLease(holder.WorkerID, grant.LeaseID); err != nil {
		t.Fatalf("owner renew after impostor attempt: %v", err)
	}
}
