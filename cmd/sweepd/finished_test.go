package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/sweep"
)

// getRaw returns the raw body of a GET.
func getRaw(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// encodeDoc is a job document exactly as writeJSON puts it on the wire.
func encodeDoc(t *testing.T, v any) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// runKeepingResults runs g the way runJob does, but keeps the
// coordinator's full Results and returns the document a server that
// retained them would serve: the job with Results attached. saveErr
// stands in for a cache-persistence failure, and jobErr for a job
// that failed.
func runKeepingResults(t *testing.T, srv *Server, g sweep.Grid, saveErr string, jobErr error) (id string, full []byte) {
	t.Helper()
	job := &sweepJob{State: "running", Grid: g, TraceID: "tr-doc"}
	srv.mu.Lock()
	job.ID = srv.sweeps.put(job)
	srv.mu.Unlock()
	meta, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.coord.RunJob(job.TraceID, job.ID, meta, g.Expand(), func(p sweep.Progress) {
		srv.mu.Lock()
		job.Progress = p
		srv.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	doc := *job
	srv.mu.Unlock()
	res.SaveErr = saveErr
	doc.State, doc.Results = "done", res
	if jobErr != nil {
		doc.Err = jobErr.Error()
	}
	full = encodeDoc(t, doc)
	srv.finishJob(job, res, jobErr)
	return job.ID, full
}

// checkFinishedDoc reads a finished job twice and checks both reads
// against want, that the job was compacted, and its stream.
func checkFinishedDoc(t *testing.T, srv *Server, ts *httptest.Server, id string, want []byte) {
	t.Helper()
	first := getRaw(t, ts, "/sweep/"+id)
	if second := getRaw(t, ts, "/sweep/"+id); !bytes.Equal(first, second) {
		t.Errorf("%s: two reads differ", id)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("%s: served document differs from the full-results document\ngot:  %.300s\nwant: %.300s",
			id, first, want)
	}
	srv.mu.Lock()
	job, _ := srv.sweeps.get(id)
	compacted := job.finished != nil && job.Results == nil
	progress := job.Progress
	srv.mu.Unlock()
	if !compacted {
		t.Errorf("%s: finished job kept its full results", id)
	}
	// A finished job's stream is one line, unchanged by compaction.
	line, err := json.Marshal(map[string]any{"state": "done", "progress": progress})
	if err != nil {
		t.Fatal(err)
	}
	if got := getRaw(t, ts, "/sweep/"+id+"/stream"); !bytes.Equal(got, append(line, '\n')) {
		t.Errorf("%s: stream %q, want %q", id, got, line)
	}
}

// TestFinishedDocumentByteIdentity pins the GET /sweep/{id} bytes of a
// compacted finished job to those of the same job holding its full
// outcome list: fresh, fully cached, with both key errors (an unknown
// policy fails Point.Key) and simulation errors (an unknown workload
// keys fine but fails to run), with a cache-persistence error, and
// with a job error. The streamed writer lays out the results object,
// save_err and err by hand; the strings carry characters the encoder
// escapes.
func TestFinishedDocumentByteIdentity(t *testing.T) {
	ts, srv := newTestServer(t)
	grids := map[string]sweep.Grid{
		"fresh": {Workloads: []string{"go", "tomcatv"}, Policies: []string{"conv", "extended"},
			IntRegs: []int{40, 48}, Scale: 2000},
		"errors": {Workloads: []string{"go", "nope"}, Policies: []string{"conv", "bogus"},
			IntRegs: []int{48}, BPredBits: []int{31, 0}, Scale: 2000},
	}
	for _, name := range []string{"fresh", "cached", "errors", "save_err", "err"} {
		g, ok := grids[name]
		if !ok {
			g = grids["fresh"]
		}
		var saveErr string
		var jobErr error
		switch name {
		case "save_err":
			saveErr = "store: sync <segment> & \"manifest\": no space left on device"
		case "err":
			jobErr = errors.New("sweep: coordinator closed <&> \"mid-job\"")
		}
		id, full := runKeepingResults(t, srv, g, saveErr, jobErr)
		t.Run(name, func(t *testing.T) { checkFinishedDoc(t, srv, ts, id, full) })
	}

	// The documents really cover what they claim to.
	var doc sweepJob
	if err := json.Unmarshal(getRaw(t, ts, "/sweep/sw-2"), &doc); err != nil {
		t.Fatal(err)
	}
	if st := doc.Results.Stats; st.CacheHits != st.Points {
		t.Errorf("cached job: %+v", st)
	}
	if err := json.Unmarshal(getRaw(t, ts, "/sweep/sw-3"), &doc); err != nil {
		t.Fatal(err)
	}
	var keyErrs, simErrs int
	for _, o := range doc.Results.Outcomes {
		switch {
		case o.Err != "" && o.Key == "":
			keyErrs++
		case o.Err != "":
			simErrs++
		}
	}
	if keyErrs == 0 || simErrs == 0 {
		t.Errorf("errors job: %d key errors, %d simulation errors", keyErrs, simErrs)
	}

	// Layouts no grid produces: an empty outcome list (every grid
	// expands to at least one point), and an outcome with no cached
	// flag, error or result.
	t.Run("empty", func(t *testing.T) {
		job, _ := srv.snapshot("sw-5")
		if job.finished == nil || job.Err == "" {
			t.Fatal("sw-5 is not a compacted failed job")
		}
		points, keys := gridOutcomeKeys(job.Grid)
		bare := *job.finished
		bare.results = append([]*pipeline.Result(nil), bare.results...)
		bare.cached = append([]bool(nil), bare.cached...)
		bare.results[0], bare.cached[0] = nil, false
		cases := []struct {
			name   string
			f      *finishedSweep
			points []sweep.Point
			keys   []string
		}{
			{"no outcomes", &finishedSweep{}, nil, nil},
			{"bare outcome", &bare, points, keys},
		}
		for _, c := range cases {
			doc := job
			doc.Results = expandRef(c.f, c.points, c.keys)
			rec := httptest.NewRecorder()
			c.f.writeFinished(rec, job, c.points, c.keys)
			if got, want := rec.Body.Bytes(), encodeDoc(t, doc); !bytes.Equal(got, want) {
				t.Errorf("%s: streamed document differs\ngot:  %.600s\nwant: %.600s", c.name, got, want)
			}
		}
	})
}

// expandRef rebuilds the full Results that f holds in compact form:
// the oracle the streamed document is checked against.
func expandRef(f *finishedSweep, points []sweep.Point, keys []string) *sweep.Results {
	res := &sweep.Results{Outcomes: []*sweep.Outcome{}, Stats: f.stats, SaveErr: f.saveErr}
	for i, pt := range points {
		res.Outcomes = append(res.Outcomes, &sweep.Outcome{Point: pt, Key: keys[i],
			Cached: f.cached[i], Err: f.errs[i], Result: f.results[i]})
	}
	return res
}

// TestFinishedJobKeepsMismatchedResults: results whose outcome keys do
// not match the grid's expansion (as keys journaled by an older binary
// could) are retained in full and served unchanged.
func TestFinishedJobKeepsMismatchedResults(t *testing.T) {
	ts, srv := newTestServer(t)
	g := sweep.Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
		IntRegs: []int{40, 48}, Scale: 2000}
	pollDone(t, ts, postGrid(t, ts, g))
	res, err := srv.coord.RunJob("", "", nil, g.Expand(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Outcomes[1].Key = strings.Repeat("0", 64)

	job := &sweepJob{State: "running", Grid: g}
	srv.mu.Lock()
	job.ID = srv.sweeps.put(job)
	doc := *job
	srv.mu.Unlock()
	doc.State, doc.Results = "done", res
	srv.finishJob(job, res, nil)
	if job.finished != nil || job.Results != res {
		t.Fatal("mismatched results were compacted")
	}
	if got, want := getRaw(t, ts, "/sweep/"+job.ID), encodeDoc(t, doc); !bytes.Equal(got, want) {
		t.Errorf("served document differs from the full-results document")
	}
}

// TestRecoveredFinishedDocument runs a job across a hard kill (the
// resume_test pattern) and checks its finished document: compacted,
// stable across reads, the canonical encoding of a full outcome list,
// and carrying the results of an uninterrupted direct run.
func TestRecoveredFinishedDocument(t *testing.T) {
	dir := t.TempDir()
	// Six points to simulate, in two shards of resumeConfig's four:
	// one completes before the kill, one after.
	g := sweep.Grid{Workloads: []string{"go", "tomcatv", "nope"}, Policies: []string{"conv", "bogus"},
		IntRegs: []int{40, 48}, Scale: 2000}
	// The uninterrupted reference run; the hand-cranked worker below
	// runs its lease on the same engine's pool.
	eng := &sweep.Engine{Cache: sweep.NewCache()}
	direct, err := eng.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv1, ts1 := openResumeServer(t, dir)
	id := postGrid(t, ts1, g)
	deadline := time.Now().Add(10 * time.Second)
	for srv1.Coordinator().Status().PendingShards == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no shards queued")
		}
		time.Sleep(time.Millisecond)
	}
	client := sweep.NewClient(ts1.URL)
	reg, err := client.RegisterWorker("manual")
	if err != nil {
		t.Fatal(err)
	}
	grant, err := client.LeaseShard(reg.WorkerID)
	if err != nil || grant == nil {
		t.Fatalf("lease: %v %v", grant, err)
	}
	completeGrant(t, client, eng, reg.WorkerID, grant)
	srv1.Halt()
	ts1.Close()

	srv2, ts2 := openResumeServer(t, dir)
	t.Cleanup(srv2.Close)
	if rec := srv2.Coordinator().Recovered(); len(rec) != 1 || rec[0].Done == rec[0].Total {
		t.Fatalf("recovered jobs: %+v, want %s part done", rec, id)
	}
	attachWorkers(t, ts2.URL, "w", 1)
	pollDone(t, ts2, id)

	first := getRaw(t, ts2, "/sweep/"+id)
	if second := getRaw(t, ts2, "/sweep/"+id); !bytes.Equal(first, second) {
		t.Error("two reads differ")
	}
	srv2.mu.Lock()
	job, _ := srv2.sweeps.get(id)
	compacted := job.finished != nil
	srv2.mu.Unlock()
	if !compacted {
		t.Error("recovered job kept its full results")
	}
	var doc sweepJob
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatal(err)
	}
	if again := encodeDoc(t, doc); !bytes.Equal(again, first) {
		t.Error("served document is not the encoding of a full outcome list")
	}
	if len(doc.Results.Outcomes) != len(direct.Outcomes) {
		t.Fatalf("%d outcomes, want %d", len(doc.Results.Outcomes), len(direct.Outcomes))
	}
	for i, o := range doc.Results.Outcomes {
		d := direct.Outcomes[i]
		if o.Point != d.Point || o.Key != d.Key || o.Err != d.Err || !reflect.DeepEqual(o.Result, d.Result) {
			t.Errorf("outcome %d: %+v, want %+v", i, o, d)
		}
	}
}

// TestFinishedSweepFootprint bounds what the job store holds for a
// retained finished sweep: 128 fully cached 192-point sweeps must hold
// under 4 KB of heap each (a full outcome list costs about 50 KB). The
// heap is read with the jobs retained and again once the store drops
// them, so traces and other per-process state are not charged.
func TestFinishedSweepFootprint(t *testing.T) {
	// The results are shared with the cache and not charged to the
	// jobs, so stand-ins serve as well as simulated ones.
	cache := sweep.NewCache()
	g := acceptanceGrid(testScale)
	for _, key := range gridKeys(g) {
		cache.Put(key, &pipeline.Result{})
	}
	srv := NewServer(cache, 0)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < maxRetainedSweeps; i++ {
		// Wait on the job itself rather than reading back its 192
		// outcomes over HTTP.
		id := postGrid(t, ts, g)
		deadline := time.Now().Add(time.Minute)
		job, _ := srv.snapshot(id)
		for ; job.State != "done"; job, _ = srv.snapshot(id) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish", id)
			}
			time.Sleep(time.Millisecond)
		}
		if job.Progress.CacheHits != 192 {
			t.Fatalf("job %s: %d of 192 points cached", id, job.Progress.CacheHits)
		}
	}

	heap := func() int64 {
		// Twice: the first collection only moves sync.Pool contents
		// (the JSON encoder's buffers) to the victim cache.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	srv.mu.Lock()
	retained := len(srv.sweeps.jobs)
	srv.mu.Unlock()
	if retained != maxRetainedSweeps {
		t.Fatalf("%d sweeps retained, want %d", retained, maxRetainedSweeps)
	}
	with := heap()
	srv.mu.Lock()
	srv.sweeps.jobs = map[string]*sweepJob{}
	srv.mu.Unlock()
	per := (with - heap()) / maxRetainedSweeps
	t.Logf("%d B of heap per retained sweep", per)
	if per >= 4096 {
		t.Errorf("%d B of heap per retained 192-point sweep, want < 4096", per)
	}
}

// cacheKeys lists the keys in the cache.
func cacheKeys(t *testing.T, c *sweep.Cache) map[string]bool {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct{ Key string }
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		keys[line.Key] = true
	}
	return keys
}

func gridKeys(g sweep.Grid) []string {
	var keys []string
	for _, pt := range g.Expand() {
		if key, err := pt.Key(); err == nil {
			keys = append(keys, key)
		}
	}
	return keys
}

// TestCacheGCKeepSet: POST /cache/gc keeps exactly the keys of retained
// sweeps, finished and running, and of retained explorations'
// frontiers, and drops those of evicted sweeps.
func TestCacheGCKeepSet(t *testing.T) {
	cache := sweep.NewCache()
	srv := NewServerWith(ServerConfig{Cache: cache, RetainJobs: 3})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	spec := exploreSpec("hillclimb")
	spec.Budget, spec.Scale = 4, 2000
	ex := pollExploreDone(t, ts, postExplore(t, ts, spec))
	evicted := sweep.Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
		IntRegs: []int{40}, Scale: 2000}
	finished := []sweep.Grid{
		{Workloads: []string{"go"}, Policies: []string{"extended"}, IntRegs: []int{48}, Scale: 2000},
		{Workloads: []string{"tomcatv", "nope"}, Policies: []string{"conv", "bogus"},
			IntRegs: []int{48}, Scale: 2000},
	}
	for _, g := range append([]sweep.Grid{evicted}, finished...) {
		pollDone(t, ts, postGrid(t, ts, g))
	}
	// A running sweep: its keys are in the cache (another client put
	// them there) but it has not resolved them yet.
	running := sweep.Grid{Workloads: []string{"listwalk"}, Policies: []string{"conv"},
		IntRegs: []int{48}, Scale: 2000}
	for _, key := range gridKeys(running) {
		cache.Put(key, &pipeline.Result{})
	}
	srv.mu.Lock()
	srv.sweeps.put(&sweepJob{State: "running", Grid: running})
	_, stillThere := srv.sweeps.get("sw-1")
	srv.mu.Unlock()
	if stillThere {
		t.Fatal("sw-1 was not evicted")
	}

	keep := map[string]bool{}
	for _, g := range append(finished, running) {
		for _, key := range gridKeys(g) {
			keep[key] = true
		}
	}
	fr := ex.Frontier
	if fr == nil || len(fr.Frontier) == 0 {
		t.Fatal("exploration has no frontier")
	}
	for _, e := range fr.Frontier {
		for _, pt := range fr.Spec.Space.Points(e.Candidate, fr.Spec.Workloads, fr.Spec.Scale, fr.Spec.Check) {
			key, err := pt.Key()
			if err != nil {
				t.Fatal(err)
			}
			keep[key] = true
		}
	}
	before := cacheKeys(t, cache)
	for _, key := range gridKeys(evicted) {
		if keep[key] || !before[key] {
			t.Fatalf("evicted sweep's key %.12s… is not a drop candidate", key)
		}
	}

	resp, err := http.Post(ts.URL+"/cache/gc", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /cache/gc: status %d, %v", resp.StatusCode, err)
	}

	after := cacheKeys(t, cache)
	for key := range keep {
		if before[key] && !after[key] {
			t.Errorf("kept key %.12s… was dropped", key)
		}
	}
	for key := range after {
		if !keep[key] {
			t.Errorf("key %.12s… survived gc but no retained job names it", key)
		}
	}
	if removed := len(before) - len(after); out["removed"] != removed || out["entries"] != len(after) {
		t.Errorf("gc reported %v; %d removed, %d left", out, removed, len(after))
	}
}

// TestJobStoreWalksRetainedWindow: all() visits only the retained ids,
// not every id ever issued, and lists jobs recovered under their
// original ids.
func TestJobStoreWalksRetainedWindow(t *testing.T) {
	st := newJobStore("sw", 4, func(j *sweepJob) bool { return j.State == "done" })
	ids := func() []string {
		var out []string
		for _, j := range st.all() {
			out = append(out, j.ID)
		}
		return out
	}
	put := func(state string) {
		j := &sweepJob{State: state}
		j.ID = st.put(j)
	}
	for _, j := range []*sweepJob{{ID: "sw-3", State: "done"}, {ID: "sw-7", State: "running"}} {
		if err := st.restore(j.ID, j); err != nil {
			t.Fatal(err)
		}
	}
	put("done")
	put("done")
	put("done")
	if got, want := ids(), []string{"sw-7", "sw-8", "sw-9", "sw-10"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after recovery: %v, want %v", got, want)
	}

	st.jobs["sw-7"].State = "done"
	for i := 0; i < 10_000; i++ {
		put("done")
	}
	want := []string{"sw-10007", "sw-10008", "sw-10009", "sw-10010"}
	if got := ids(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after 10000 submissions: %v, want %v", got, want)
	}
	// Each visited id formats one string: a walk from sw-1 would
	// allocate at least 10 000 times.
	if allocs := testing.AllocsPerRun(10, func() { st.all() }); allocs > 4*float64(len(want))+1 {
		t.Errorf("all() made %.0f allocations for %d retained jobs", allocs, len(want))
	}
}

// TestRetainPassesRunningSweep: one sweep that never finishes (no
// workers) must not pin the sweeps submitted after it. Finished sweeps
// keep arriving, all served from a warm cache, and the job store stays
// at the retention cap with the running sweep still in it.
func TestRetainPassesRunningSweep(t *testing.T) {
	const retain = 4
	warm := sweep.Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
		IntRegs: []int{48}, Scale: testScale}
	cache := sweep.NewCache()
	if _, err := (&sweep.Engine{Cache: cache}).Run(warm, nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(ServerConfig{Cache: cache, LocalWorkers: -1, RetainJobs: retain})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	stuck := postGrid(t, ts, sweep.Grid{Workloads: []string{"tomcatv"}, Policies: []string{"conv"},
		IntRegs: []int{48}, Scale: testScale})
	for i := 0; i < 3*retain; i++ {
		pollDone(t, ts, postGrid(t, ts, warm))
	}
	if v := metricValue(t, scrapeMetrics(t, ts), "sweepd_sweeps_retained"); v != retain {
		t.Fatalf("sweepd_sweeps_retained = %g with one running sweep, want %d", v, retain)
	}
	if job, ok := srv.snapshot(stuck); !ok || job.State != "running" {
		t.Fatalf("running sweep %s: ok=%v state=%q", stuck, ok, job.State)
	}
}

// TestJournalDegradedGauge: sweepd_journal_degraded flips to 1 once the
// state dir stops taking writes, and the journal's size and compaction
// count are on /metrics, both 0 on a fresh state dir.
func TestJournalDegradedGauge(t *testing.T) {
	dir := t.TempDir()
	srv, err := OpenServerWith(resumeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	m := scrapeMetrics(t, ts)
	if v := metricValue(t, m, "sweepd_journal_degraded"); v != 0 {
		t.Fatalf("healthy journal: sweepd_journal_degraded %g", v)
	}
	// Open does not compact an empty log, so a fresh state dir shows
	// none; a compaction then writes at least the id sequence.
	if v := metricValue(t, m, "sweepd_journal_compactions_total"); v != 0 {
		t.Fatalf("sweepd_journal_compactions_total %g after a fresh open, want 0", v)
	}
	if v := metricValue(t, m, "sweepd_journal_wal_bytes"); v != 0 {
		t.Fatalf("sweepd_journal_wal_bytes %g after a fresh open, want 0", v)
	}
	srv.Coordinator().Compact()
	m = scrapeMetrics(t, ts)
	if v := metricValue(t, m, "sweepd_journal_compactions_total"); v != 1 {
		t.Fatalf("sweepd_journal_compactions_total %g after one compaction, want 1", v)
	}
	if v := metricValue(t, m, "sweepd_journal_wal_bytes"); v <= 0 {
		t.Fatalf("sweepd_journal_wal_bytes %g after a compaction", v)
	}
	// A non-empty directory where the log goes makes the compaction's
	// rename fail.
	wal := filepath.Join(dir, "wal.log")
	if err := os.Remove(wal); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(wal, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv.Coordinator().Compact()
	if fedStatus(t, ts).JournalErr == "" {
		t.Fatal("failed compaction did not degrade the journal")
	}
	m = scrapeMetrics(t, ts)
	if v := metricValue(t, m, "sweepd_journal_degraded"); v != 1 {
		t.Errorf("degraded journal: sweepd_journal_degraded %g", v)
	}
	if v := metricValue(t, m, "sweepd_journal_compactions_total"); v != 1 {
		t.Errorf("failed compaction counted: sweepd_journal_compactions_total %g", v)
	}
}

// discardResponse is a ResponseWriter that counts and drops the body.
type discardResponse struct {
	header http.Header
	n      int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// finishedAcceptanceSweep returns the handler of a pure coordinator
// holding one finished, fully cached acceptance-grid sweep, and the
// sweep's id.
// The cached results are the pipeline's golden fixtures, cycled over
// the grid's keys, so the document has the size of a simulated one.
func finishedAcceptanceSweep(tb testing.TB) (http.Handler, string) {
	tb.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", "internal", "pipeline", "testdata", "golden.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var golden map[string]*pipeline.Result
	if err := json.Unmarshal(blob, &golden); err != nil {
		tb.Fatal(err)
	}
	var results []*pipeline.Result
	for _, r := range golden {
		results = append(results, r)
	}
	g := acceptanceGrid(testScale)
	cache := sweep.NewCache()
	for i, key := range gridKeys(g) {
		cache.Put(key, results[i%len(results)])
	}
	srv := NewServerWith(ServerConfig{Cache: cache, LocalWorkers: -1})
	tb.Cleanup(srv.Close)
	h := srv.Handler()
	body, err := json.Marshal(g)
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	var sub struct{ ID string }
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		tb.Fatalf("submit: %v: %s", err, rec.Body.Bytes())
	}
	deadline := time.Now().Add(time.Minute)
	for job, _ := srv.snapshot(sub.ID); job.finished == nil; job, _ = srv.snapshot(sub.ID) {
		if time.Now().After(deadline) {
			tb.Fatalf("job %s was not compacted: %+v", sub.ID, job)
		}
		time.Sleep(time.Millisecond)
	}
	return h, sub.ID
}

// getFinished serves one GET /sweep/{id} into a discarding writer and
// returns the body's size.
func getFinished(h http.Handler, id string) int {
	w := &discardResponse{header: http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/sweep/"+id, nil))
	return w.n
}

// TestFinishedGetAllocatesUnderDocumentSize: reading a finished sweep
// costs memory for one outcome at a time, not for the document. A GET
// of a cached 192-point acceptance-grid sweep must allocate less than
// the bytes it sends; building the outcome list and marshalling the
// whole document allocated about 5.3 times them.
func TestFinishedGetAllocatesUnderDocumentSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures under the race detector")
	}
	h, id := finishedAcceptanceSweep(t)
	size := getFinished(h, id)
	const reads = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		getFinished(h, id)
	}
	runtime.ReadMemStats(&after)
	per := int64(after.TotalAlloc-before.TotalAlloc) / reads
	t.Logf("GET of a %d B document allocates %d B (%.2f×)", size, per, float64(per)/float64(size))
	if per >= int64(size) {
		t.Errorf("GET of a %d B finished document allocates %d B, want less than the document", size, per)
	}
}

// failingResponse is a ResponseWriter whose connection is gone: every
// write fails.
type failingResponse struct {
	discardResponse
	writes int
}

func (f *failingResponse) Write([]byte) (int, error) {
	f.writes++
	return 0, io.ErrClosedPipe
}

// TestFinishedStreamStopsAtWriteError: a finished document goes out in
// several writes, and a failed one ends the stream.
func TestFinishedStreamStopsAtWriteError(t *testing.T) {
	h, id := finishedAcceptanceSweep(t)
	if size := getFinished(h, id); size < 2*streamFlushBytes {
		t.Fatalf("a %d B document does not take several writes", size)
	}
	w := &failingResponse{discardResponse: discardResponse{header: http.Header{}}}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/sweep/"+id, nil))
	if w.writes != 1 {
		t.Errorf("%d writes after the first one failed, want none", w.writes-1)
	}
}

// BenchmarkFinishedSweepGet serves GET /sweep/{id} of a finished, fully
// cached 192-point acceptance-grid sweep into a discarding writer,
// through the server's whole handler chain.
func BenchmarkFinishedSweepGet(b *testing.B) {
	h, id := finishedAcceptanceSweep(b)
	b.SetBytes(int64(getFinished(h, id)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		getFinished(h, id)
	}
}
