package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sync"
	"time"

	"earlyrelease/internal/obs"
	"earlyrelease/internal/search"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/sweep/durable"
	"earlyrelease/internal/tenant"
)

// Server is the sweepd HTTP API. Clients submit grids, poll or stream
// their progress, and read results; since the federation refactor the
// server is a coordinator — submitted grids are planned into
// cost-balanced shards and executed under TTL leases by workers, local
// (embedded in this process) or remote (sweepd -role worker -join).
// All sweeps share one content-addressed cache, so concurrent clients
// asking for overlapping grids each pay only for the points nobody has
// simulated yet.
//
// Client API:
//
//	POST /sweep               submit a sweep.Grid, returns {"id", "trace_id"}
//	GET  /sweep/{id}          status, progress and (when done) results
//	GET  /sweep/{id}/stream   NDJSON progress snapshots until completion
//	GET  /sweep/{id}/trace    the job's span timeline (?format=text for humans)
//	GET  /sweeps              list all submitted sweeps
//	GET  /trace/{id}          a timeline by trace id (traceparent-friendly)
//	POST /explore             submit a search.Spec, returns {"id": ...}
//	GET  /explore/{id}        exploration status and (when done) frontier
//	GET  /explore/{id}/stream NDJSON progress snapshots until completion
//	GET  /explores            list all submitted explorations
//	GET  /axes                machine-model axis schema (names, Table 2
//	                          baselines, explorer default bounds)
//	GET  /cache               shared cache statistics
//	GET  /cache/export        the shared cache as NDJSON
//	POST /cache/gc            drop results no retained job references
//	                          (needs a known token when -tokens enforces)
//	GET  /healthz             liveness
//
// Explorations (DESIGN.md §4.5) run against this coordinator, so their
// candidate evaluations shard across the same worker fleet and land in
// the same content-addressed cache as ordinary sweeps.
//
// Federation API (see DESIGN.md §4.3 for the protocol):
//
//	POST /workers/register    join the worker registry
//	POST /workers/heartbeat   worker liveness while idle
//	GET  /workers             registry snapshot
//	GET  /federation          queue + lease + registry status
//	POST /work/lease          pull a shard lease (wire envelope)
//	POST /work/renew          extend a held lease
//	POST /work/complete       report a leased shard (wire envelope)
//
// Leased completions are the only write into the shared cache: every
// result in it was simulated by a worker against a point the
// coordinator planned, and verified against that point's key.
//
// Grids may sweep any machine-model axis (ros_sizes, lsq_sizes,
// issue_widths, bpred_bits, ... — see GET /axes) exactly like the
// register-file and policy axes; a 0 entry names the Table 2 baseline.
type Server struct {
	coord    *sweep.Coordinator
	cache    *sweep.Cache
	stateDir string

	// Tenancy & operability (DESIGN.md §4.8): tenants admits every
	// submission, httpStats and started feed GET /metrics, logger (if
	// set) emits one structured line per request, enablePprof exposes
	// /debug/pprof.
	tenants     *tenant.Registry
	logger      *slog.Logger
	enablePprof bool
	started     time.Time
	httpStats   httpStats

	stopWorkers context.CancelFunc
	workerWG    sync.WaitGroup
	simulates   bool // local workers run simulations in this process

	mu       sync.Mutex
	sweeps   *jobStore[sweepJob]
	explores *jobStore[exploreJob]
}

// jobStore retains one class of submitted jobs (sweeps, explorations)
// with sequential "{prefix}-{n}" ids, evicting finished jobs
// oldest-first beyond the retention cap. Running jobs are never
// evicted, but they pin nothing: eviction passes over them. All
// methods require the server's lock.
type jobStore[J any] struct {
	prefix  string
	retain  int // retention cap
	done    func(*J) bool
	evicted func(id string) // if set, called for each evicted job
	jobs    map[string]*J
	ids     []int // retained ids, ascending
	next    int
}

func newJobStore[J any](prefix string, retain int, done func(*J) bool) *jobStore[J] {
	if retain <= 0 {
		retain = maxRetainedSweeps
	}
	return &jobStore[J]{prefix: prefix, retain: retain, done: done, jobs: map[string]*J{}}
}

// put registers a job, returns its new id, and evicts the oldest
// finished jobs beyond the cap.
func (st *jobStore[J]) put(j *J) string {
	st.next++
	id := st.id(st.next)
	st.jobs[id] = j
	st.ids = append(st.ids, st.next)
	if excess := len(st.ids) - st.retain; excess > 0 {
		kept := st.ids[:0]
		for _, n := range st.ids {
			if oid := st.id(n); excess > 0 && st.done(st.jobs[oid]) {
				delete(st.jobs, oid)
				if st.evicted != nil {
					st.evicted(oid)
				}
				excess--
				continue
			}
			kept = append(kept, n)
		}
		st.ids = kept
	}
	return id
}

func (st *jobStore[J]) id(n int) string { return fmt.Sprintf("%s-%d", st.prefix, n) }

func (st *jobStore[J]) get(id string) (*J, bool) {
	j, ok := st.jobs[id]
	return j, ok
}

// all lists the retained jobs in submission order, visiting only the
// retained ids rather than every id ever issued.
func (st *jobStore[J]) all() []*J {
	out := make([]*J, 0, len(st.ids))
	for _, n := range st.ids {
		out = append(out, st.jobs[st.id(n)])
	}
	return out
}

// maxRetainedSweeps is the default bound on sweepd's job history:
// finished sweeps beyond this count are evicted oldest-first (their
// results stay in the shared cache — only the per-job record goes
// away). Running sweeps count toward the cap but are never evicted.
// ServerConfig.RetainJobs raises it for deployments whose client
// population can outrun the default between submit and first poll.
const maxRetainedSweeps = 128

// sweepJob tracks one submitted grid through its lifecycle. Tenant is
// set only when a token registry is enforcing, so the no-token job
// document stays byte-identical to the pre-tenancy API.
//
// A finished job keeps its results in the compact finished form, and
// Results stays nil: GET /sweep/{id} streams the outcomes from it for
// each read. Results is retained only for a job whose outcomes do not
// match its grid (see compactChecked).
type sweepJob struct {
	ID       string         `json:"id"`
	State    string         `json:"state"` // "running" or "done"
	Tenant   string         `json:"tenant,omitempty"`
	TraceID  string         `json:"trace_id,omitempty"`
	Grid     sweep.Grid     `json:"grid"`
	Progress sweep.Progress `json:"progress"`
	Results  *sweep.Results `json:"results,omitempty"`
	Err      string         `json:"err,omitempty"`

	finished *finishedSweep
}

// exploreJob tracks one design-space exploration. Evaluation runs on
// the coordinator (candidate batches shard across the worker fleet);
// the frontier appears when the job completes.
type exploreJob struct {
	ID       string           `json:"id"`
	State    string           `json:"state"` // "running" or "done"
	Tenant   string           `json:"tenant,omitempty"`
	Spec     search.Spec      `json:"spec"`
	Progress search.Progress  `json:"progress"`
	Frontier *search.Frontier `json:"frontier,omitempty"`
	Err      string           `json:"err,omitempty"`
}

// ServerConfig assembles a coordinator server.
type ServerConfig struct {
	// Cache is the shared result store (nil = fresh in-memory cache).
	Cache *sweep.Cache
	// LocalWorkers is the number of embedded worker loops pulling from
	// this coordinator in-process (<0 = none: a pure coordinator that
	// only serves remote workers; 0 = 1).
	LocalWorkers int
	// WorkerParallel bounds each local worker's engine pool
	// (0 = GOMAXPROCS).
	WorkerParallel int
	// LeaseTTL, MaxAttempts and Planner tune the federation (zero
	// values take the sweep package defaults).
	LeaseTTL    time.Duration
	MaxAttempts int
	Planner     sweep.ShardPlanner
	// StateDir makes the coordinator durable (DESIGN.md §4.3): queue
	// state is journaled there and a restarted server resumes every
	// interrupted sweep and exploration. Empty = memory only.
	StateDir string

	// Tenants is the admission registry (DESIGN.md §4.8). Nil = the
	// open registry: unlimited anonymous access, byte-identical to the
	// pre-tenancy server.
	Tenants *tenant.Registry
	// RetainJobs overrides the finished-job retention cap (0 = the
	// maxRetainedSweeps default). Size it above the expected concurrent
	// client population, or finished jobs can be evicted before their
	// submitters poll the results.
	RetainJobs int
	// EnablePprof mounts /debug/pprof/* on the handler.
	EnablePprof bool
	// Logger, when set, emits one structured line per HTTP request
	// (method, route, tenant, status, latency).
	Logger *slog.Logger
}

// NewServer builds a coordinator server with one embedded local worker
// whose engine runs `parallel` simulations at once — the single-process
// behavior sweepd always had.
func NewServer(cache *sweep.Cache, parallel int) *Server {
	return NewServerWith(ServerConfig{Cache: cache, WorkerParallel: parallel})
}

// NewServerWith builds a server from an explicit configuration. It is
// OpenServerWith for configurations that cannot fail (no state dir).
func NewServerWith(cfg ServerConfig) *Server {
	s, err := OpenServerWith(cfg)
	if err != nil {
		panic(err) // unreachable without cfg.StateDir
	}
	return s
}

// OpenServerWith builds a server from an explicit configuration. With
// cfg.StateDir set the coordinator replays its journal first, and every
// interrupted sweep resurfaces under its original id — already carrying
// its pre-crash completions — with a resume goroutine attached — and
// each exploration is restored from its record, <id>.json (see
// recoverExplores). A state dir holding explores.json, an older
// version's exploration index, is refused by name and left untouched.
func OpenServerWith(cfg ServerConfig) (*Server, error) {
	if old := filepath.Join(cfg.StateDir, "explores.json"); cfg.StateDir != "" {
		if _, err := os.Lstat(old); err == nil {
			return nil, fmt.Errorf("sweepd: state dir holds %s from an older exploration format, which this version cannot read", old)
		}
	}
	cache := cfg.Cache
	if cache == nil {
		cache = sweep.NewCache()
	}
	coord, err := sweep.OpenCoordinator(cache, sweep.CoordConfig{
		LeaseTTL:    cfg.LeaseTTL,
		MaxAttempts: cfg.MaxAttempts,
		Planner:     cfg.Planner,
		StateDir:    cfg.StateDir,
	})
	if err != nil {
		return nil, err
	}
	tenants := cfg.Tenants
	if tenants == nil {
		tenants = tenant.Open()
	}
	s := &Server{
		coord:       coord,
		cache:       cache,
		stateDir:    cfg.StateDir,
		tenants:     tenants,
		logger:      cfg.Logger,
		enablePprof: cfg.EnablePprof,
		started:     time.Now(),
		sweeps:      newJobStore("sw", cfg.RetainJobs, func(j *sweepJob) bool { return j.State == "done" }),
		explores:    newJobStore("ex", cfg.RetainJobs, func(j *exploreJob) bool { return j.State == "done" }),
	}
	if s.stateDir != "" {
		// A record a failed remove leaves behind is restored at the next
		// start and evicted again, so the error changes nothing here.
		s.explores.evicted = func(id string) { _ = os.Remove(s.explorePath(id)) }
	}
	s.recoverSweeps()
	if err := s.recoverExplores(); err != nil {
		return nil, err
	}

	n := cfg.LocalWorkers
	if n == 0 {
		n = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	s.simulates = n > 0
	for i := 0; i < n; i++ {
		w := &sweep.Worker{
			Source:   s.coord,
			Name:     fmt.Sprintf("local-%d", i+1),
			Parallel: cfg.WorkerParallel,
			Poll:     5 * time.Millisecond,
		}
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			w.Run(ctx)
		}()
	}
	return s, nil
}

// Coordinator exposes the underlying federation coordinator (tests and
// the worker role wire directly to it).
func (s *Server) Coordinator() *sweep.Coordinator { return s.coord }

// Close shuts the federation down: embedded workers stop, queued jobs
// abort with an error, and in-flight HTTP streams wind down on their
// own contexts. With a state dir this is the graceful path — the
// coordinator compacts its journal, so a restart replays only the
// records that rebuild the queue.
func (s *Server) Close() {
	s.coord.Close()
	s.stopWorkers()
	s.workerWG.Wait()
}

// Halt is Close without the goodbye: the journal stops exactly where
// it is — no final compaction — so what lands on disk is what a hard
// kill (SIGKILL, power loss) would leave. The resume tests restart
// from this state to exercise replay of an uncompacted tail.
func (s *Server) Halt() {
	s.coord.Halt()
	s.stopWorkers()
	s.workerWG.Wait()
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweep", s.handleSubmit)
	mux.HandleFunc("GET /sweep/{id}", s.handleGet)
	mux.HandleFunc("GET /sweep/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /sweep/{id}/trace", s.handleSweepTrace)
	mux.HandleFunc("GET /sweeps", s.handleList)
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	mux.HandleFunc("POST /explore", s.handleExploreSubmit)
	mux.HandleFunc("GET /explore/{id}", s.handleExploreGet)
	mux.HandleFunc("GET /explore/{id}/stream", s.handleExploreStream)
	mux.HandleFunc("GET /explores", s.handleExploreList)
	mux.HandleFunc("GET /axes", handleAxes)
	mux.HandleFunc("GET /cache", s.handleCacheStats)
	mux.HandleFunc("POST /workers/register", s.handleRegister)
	mux.HandleFunc("POST /workers/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("GET /workers", s.handleWorkers)
	mux.HandleFunc("GET /federation", s.handleFederation)
	mux.HandleFunc("POST /work/lease", s.handleLease)
	mux.HandleFunc("POST /work/renew", s.handleRenew)
	mux.HandleFunc("POST /work/complete", s.handleComplete)
	mux.HandleFunc("GET /cache/export", s.handleCacheExport)
	mux.HandleFunc("POST /cache/gc", s.handleCacheGC)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxGridBytes bounds every JSON request body decodeBounded reads: a
// grid or exploration-spec submission, and the worker routes' register,
// heartbeat, lease and renew requests. Real grids are a few hundred
// bytes of axis lists; 1 MiB is three orders of magnitude of headroom
// while still refusing an unbounded body before json.Decode buffers it.
const maxGridBytes = 1 << 20

// decodeBounded decodes a JSON request body under the maxGridBytes
// cap, distinguishing an over-long body (413) from malformed JSON
// (400). It writes the rejection itself; ok=false means the handler
// must return.
func decodeBounded(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxGridBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"%s body exceeds %d bytes", what, maxGridBytes)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad %s: %v", what, err)
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var g sweep.Grid
	if !decodeBounded(w, r, "grid", &g) {
		return
	}
	// Expand exactly once: the same slice validates the grid, prices
	// the admission decision, and (pre-expanded) feeds RunJob.
	points := g.Expand()
	if len(points) == 0 {
		writeError(w, http.StatusBadRequest, "grid expands to no points")
		return
	}
	adm, ok := s.admit(w, r, len(points))
	if !ok {
		return
	}

	s.mu.Lock()
	job := &sweepJob{State: "running", Grid: g, TraceID: requestTraceID(r)}
	if s.tenants.Enforcing() {
		job.Tenant = adm.Tenant()
	}
	job.ID = s.sweeps.put(job)
	s.mu.Unlock()

	go s.runJob(job, g, points, adm)
	// The trace id rides in the header too, so curl pipelines can grab
	// it without parsing the body.
	w.Header().Set("X-Trace-Id", job.TraceID)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": job.ID, "trace_id": job.TraceID})
}

// requestTraceID resolves the trace id for a submission: a W3C
// traceparent header wins (the caller is already tracing end-to-end),
// then an explicit X-Trace-Id, else sweepd mints one. Either way the
// job's whole lifecycle — plan, shards, leases, retries — records
// under this one id (DESIGN.md §4.9).
func requestTraceID(r *http.Request) string {
	if id := obs.FromTraceparent(r.Header.Get("traceparent")); id != "" {
		return id
	}
	if id := obs.SanitizeTraceID(r.Header.Get("X-Trace-Id")); id != "" {
		return id
	}
	return obs.NewTraceID()
}

// runJob executes the sweep on the federation and publishes progress
// under the lock. A grid whose points all fail still completes as
// "done": per-point errors live in the outcomes, matching the engine's
// contract. The job runs labeled with its sweep id and the grid as
// journal metadata, so a durable coordinator can resurface it after a
// restart (recoverSweeps). The admission is released when the job
// reaches a terminal state, success or not — quota tracks genuinely
// in-flight work.
func (s *Server) runJob(job *sweepJob, g sweep.Grid, points []sweep.Point, adm *tenant.Admission) {
	defer adm.Done()
	meta, _ := json.Marshal(g)
	res, err := s.coord.RunJob(job.TraceID, job.ID, meta, points, func(p sweep.Progress) {
		s.mu.Lock()
		job.Progress = p
		s.mu.Unlock()
	})
	s.publishJob(job, res, compactResults(res), err)
}

// finishJob publishes the terminal state of a sweep whose outcomes did
// not come from a RunJob over its grid's expansion (a resumed job's),
// compacting them only if they match the grid. The check runs off the
// lock; the grid it reads never changes after submission.
func (s *Server) finishJob(job *sweepJob, res *sweep.Results, err error) {
	s.publishJob(job, res, compactChecked(job.Grid, res), err)
}

// publishJob publishes a sweep's terminal state: the compact finished
// form when there is one, else the full results.
func (s *Server) publishJob(job *sweepJob, res *sweep.Results, finished *finishedSweep, err error) {
	if finished != nil {
		res = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	job.State = "done"
	job.Results = res
	job.finished = finished
	if err != nil {
		job.Err = err.Error()
	}
}

// snapshot copies a job's current public state under the lock.
func (s *Server) snapshot(id string) (sweepJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.sweeps.get(id)
	if !ok {
		return sweepJob{}, false
	}
	return *job, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	if f := job.finished; f != nil {
		points, keys := gridOutcomeKeys(job.Grid) // off the lock: job is a copy
		f.writeFinished(w, job, points, keys)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// streamSnapshots writes NDJSON job snapshots (one per visible change,
// at most ~20/s) until the job reports state "done", then a final line
// with that state. Clients get live progress with plain line-buffered
// readers — no SSE machinery needed. The handler honors client
// disconnects on both paths — a write to a gone peer and the idle
// wait — so an abandoned stream releases its goroutine promptly
// instead of riding along until the job finishes. Both the sweep and
// exploration streams run on this one loop; snap returns the job's
// current state and the line payload, or ok=false when the job is
// unknown (evicted mid-stream ends the stream cleanly).
func streamSnapshots(w http.ResponseWriter, r *http.Request, snap func() (state string, line any, ok bool)) {
	ctx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var last []byte
	for {
		if ctx.Err() != nil {
			return
		}
		state, line, ok := snap()
		if !ok {
			return
		}
		// Emit on any visible change — including the state flip to
		// "done" after the final progress update, so the stream always
		// ends with a state:"done" line.
		blob, err := json.Marshal(line)
		if err != nil {
			return
		}
		if !bytes.Equal(blob, last) {
			last = append(last[:0], blob...)
			if _, err := w.Write(append(blob, '\n')); err != nil {
				return // peer is gone; don't wait out the job
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if state == "done" {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.snapshot(id); !ok {
		writeError(w, http.StatusNotFound, "no sweep %q", id)
		return
	}
	streamSnapshots(w, r, func() (string, any, bool) {
		job, ok := s.snapshot(id)
		if !ok {
			return "", nil, false
		}
		return job.State, map[string]any{"state": job.State, "progress": job.Progress}, true
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	type item struct {
		ID       string         `json:"id"`
		State    string         `json:"state"`
		Progress sweep.Progress `json:"progress"`
	}
	jobs := s.sweeps.all()
	items := make([]item, 0, len(jobs))
	for _, job := range jobs {
		items = append(items, item{job.ID, job.State, job.Progress})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, items)
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.Stats())
}

// handleCacheExport streams the whole shared cache as NDJSON — one
// {"key":…,"result":…} line per result, in sorted key order. Workers
// and fresh coordinators seed themselves with `sweep -cache DIR
// -import` from this stream.
func (s *Server) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.cache.Export(w); err != nil {
		// Headers are gone; all we can do is cut the stream short so
		// the client's decoder sees a torn line rather than a clean EOF.
		log.Printf("cache export: %v", err)
	}
}

// handleCacheGC drops every cached result no retained job references:
// the keep-set is the union of each retained sweep's point keys and
// each retained exploration's frontier evaluations. Results evicted
// from the job stores age out of the cache here rather than
// accumulating forever. The keys are hashed after the lock is
// released: grids and frontiers never change once set. GC deletes
// corpus entries, so an enforcing registry requires a known token.
func (s *Server) handleCacheGC(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	keep := make(map[string]struct{})
	var grids []sweep.Grid
	var frontiers []*search.Frontier
	s.mu.Lock()
	for _, job := range s.sweeps.all() {
		if job.Results != nil {
			for _, o := range job.Results.Outcomes {
				keep[o.Key] = struct{}{}
			}
			continue
		}
		// A running sweep will ask for every key its grid names, and a
		// compacted finished sweep's outcome keys are exactly those.
		grids = append(grids, job.Grid)
	}
	for _, job := range s.explores.all() {
		if fr := job.Frontier; fr != nil && fr.Spec.Space != nil {
			frontiers = append(frontiers, fr)
		}
	}
	s.mu.Unlock()

	addKeys := func(points []sweep.Point) {
		keys, _ := sweep.Keys(points)
		for _, key := range keys {
			if key != "" {
				keep[key] = struct{}{}
			}
		}
	}
	for _, g := range grids {
		addKeys(g.Expand())
	}
	for _, fr := range frontiers {
		for _, e := range fr.Frontier {
			addKeys(fr.Spec.Space.Points(e.Candidate, fr.Spec.Workloads, fr.Spec.Scale, fr.Spec.Check))
		}
	}

	before := s.cache.Len()
	removed, err := s.cache.GC(func(key string) bool {
		_, ok := keep[key]
		return ok
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "cache gc: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{
		"removed": removed, "kept": before - removed, "entries": s.cache.Len(),
	})
}

// --- design-space exploration -------------------------------------------

// handleExploreSubmit accepts a search.Spec and runs it against this
// coordinator: candidate evaluations are planned into shards and
// executed by the worker fleet exactly like submitted grids, and every
// simulated point lands in the shared cache. The spec is normalized
// (defaults resolved, space validated) before the job is accepted, so
// a bad spec is a synchronous 400 rather than a failed job.
func (s *Server) handleExploreSubmit(w http.ResponseWriter, r *http.Request) {
	var spec search.Spec
	if !decodeBounded(w, r, "exploration spec", &spec) {
		return
	}
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// An exploration's admission price is its worst case: every one of
	// the budgeted candidate evaluations costs one point per workload
	// (the normalized spec has both fields resolved).
	adm, ok := s.admit(w, r, spec.Budget*len(spec.Workloads))
	if !ok {
		return
	}

	s.mu.Lock()
	job := &exploreJob{State: "running", Spec: spec}
	if s.tenants.Enforcing() {
		job.Tenant = adm.Tenant()
	}
	job.ID = s.explores.put(job)
	doc := *job
	s.mu.Unlock()

	// Best-effort: an unwritable state dir must not fail a submission
	// that was already admitted.
	if s.stateDir != "" {
		if err := durable.WriteSnapshot(s.explorePath(doc.ID), doc); err != nil {
			log.Printf("exploration %s: %v", doc.ID, err)
		}
	}
	go s.runExploreJob(job, spec, adm)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": job.ID})
}

// runExploreJob executes the exploration; adm is nil on the recovery
// path (the crashed submission was already admitted, and quotas track
// live in-flight work only).
func (s *Server) runExploreJob(job *exploreJob, spec search.Spec, adm *tenant.Admission) {
	defer adm.Done()
	ex := &search.Explorer{Eval: s.coord}
	fr, err := ex.Run(spec, func(p search.Progress) {
		s.mu.Lock()
		job.Progress = p
		s.mu.Unlock()
	})
	s.mu.Lock()
	doc := *job
	s.mu.Unlock()
	doc.State, doc.Frontier = "done", fr
	if err != nil {
		doc.Err = err.Error()
	}
	// Persist the finished document before publishing it: once a client
	// reads "done", a restarted server must serve the same document. A
	// job that died because the coordinator shut down under it is not a
	// terminal failure — its record keeps saying "running", so the next
	// start re-runs it (deterministically, against the warm cache).
	if s.stateDir != "" && !errors.Is(err, sweep.ErrClosed) {
		if serr := durable.WriteSnapshot(s.explorePath(doc.ID), doc); serr != nil && err == nil {
			doc.Err = fmt.Sprintf("persist exploration: %v", serr)
		}
	}
	s.mu.Lock()
	*job = doc
	s.mu.Unlock()
}

func (s *Server) snapshotExplore(id string) (exploreJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.explores.get(id)
	if !ok {
		return exploreJob{}, false
	}
	return *job, true
}

func (s *Server) handleExploreGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.snapshotExplore(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no exploration %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleExploreStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.snapshotExplore(id); !ok {
		writeError(w, http.StatusNotFound, "no exploration %q", id)
		return
	}
	streamSnapshots(w, r, func() (string, any, bool) {
		job, ok := s.snapshotExplore(id)
		if !ok {
			return "", nil, false
		}
		return job.State, map[string]any{"state": job.State, "progress": job.Progress}, true
	})
}

func (s *Server) handleExploreList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	type item struct {
		ID       string          `json:"id"`
		State    string          `json:"state"`
		Strategy string          `json:"strategy"`
		Progress search.Progress `json:"progress"`
	}
	jobs := s.explores.all()
	items := make([]item, 0, len(jobs))
	for _, job := range jobs {
		items = append(items, item{job.ID, job.State, job.Spec.Strategy, job.Progress})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, items)
}

// handleAxes publishes the sweepable-dimension schema so clients can
// build grids — and exploration Spaces — without hardcoding: each
// machine axis reports its grid field, Table 2 baseline and the
// explorer's default bounds, and two register-file entries carry the
// default size dimension (their "field" is the grid's int_regs /
// fp_regs axis; the explorer ties FP to int by default).
func handleAxes(w http.ResponseWriter, r *http.Request) {
	type axis struct {
		Name          string `json:"name"`
		Doc           string `json:"doc"`
		Baseline      int    `json:"baseline"`
		Field         string `json:"field"` // grid JSON field the axis maps to
		ExploreValues []int  `json:"explore_values"`
	}
	var axes []axis
	for _, ax := range sweep.MachineAxes() {
		axes = append(axes, axis{Name: ax.Name, Doc: ax.Doc, Baseline: ax.Baseline,
			Field: ax.Field, ExploreValues: search.DefaultAxisValues(ax)})
	}
	axes = append(axes,
		axis{Name: "int_regs", Doc: "integer register file size", Baseline: 48,
			Field: "int_regs", ExploreValues: search.DefaultSizes},
		axis{Name: "fp_regs", Doc: "FP register file size (explorer default: tied to int)", Baseline: 48,
			Field: "fp_regs", ExploreValues: search.DefaultSizes})
	writeJSON(w, http.StatusOK, axes)
}

// --- federation handlers -----------------------------------------------

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var in struct {
		Name string `json:"name"`
	}
	if !decodeBounded(w, r, "register request", &in) {
		return
	}
	rep, err := s.coord.RegisterWorker(in.Name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"worker_id":    rep.WorkerID,
		"lease_ttl_ms": rep.LeaseTTL.Milliseconds(),
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var in sweep.Heartbeat
	if !decodeBounded(w, r, "heartbeat", &in) {
		return
	}
	if err := s.coord.HeartbeatWorker(in.WorkerID, in.TraceCache); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.Status().Workers)
}

func (s *Server) handleFederation(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.Status())
}

// handleLease pops the next shard for a registered worker. 204 means
// the queue is empty; the 200 body is a LeaseGrant in the checksummed
// wire envelope.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var in struct {
		WorkerID string `json:"worker_id"`
	}
	if !decodeBounded(w, r, "lease request", &in) {
		return
	}
	grant, err := s.coord.LeaseShard(in.WorkerID)
	if err != nil {
		switch {
		case errors.Is(err, sweep.ErrUnknownWorker):
			writeError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, sweep.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if grant == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	frame, err := sweep.EncodeMessage(grant)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode lease: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(frame)
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var in struct {
		WorkerID string `json:"worker_id"`
		LeaseID  string `json:"lease_id"`
	}
	if !decodeBounded(w, r, "renew request", &in) {
		return
	}
	switch err := s.coord.RenewLease(in.WorkerID, in.LeaseID); {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case errors.Is(err, sweep.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		// Stale lease or wrong worker: either way the caller must stop
		// treating the lease as held.
		writeError(w, http.StatusConflict, "%v", err)
	}
}

// maxCompleteBytes bounds a completion payload (a full shard of
// Results is well under 1 MiB; 64 MiB leaves room for huge shards
// without letting a hostile peer exhaust memory).
const maxCompleteBytes = 64 << 20

// handleComplete accepts a worker's completion frame. The wire
// envelope's checksum rejects corruption before decode; the
// coordinator's key verification rejects mislabeled results after it.
// Either way a bad payload gets a 4xx and never touches the cache.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxCompleteBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read completion: %v", err)
		return
	}
	if len(data) > maxCompleteBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "completion exceeds %d bytes", maxCompleteBytes)
		return
	}
	m, err := sweep.DecodeMessage(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad completion frame: %v", err)
		return
	}
	req, ok := m.(*sweep.CompleteRequest)
	if !ok {
		writeError(w, http.StatusBadRequest, "completion frame decoded to %T", m)
		return
	}
	switch err := s.coord.CompleteShard(req); {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case errors.Is(err, sweep.ErrBadPayload):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, sweep.ErrStaleLease), errors.Is(err, sweep.ErrWrongWorker):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, sweep.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
