package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"earlyrelease/internal/obs"
	"earlyrelease/internal/tenant"
	"earlyrelease/internal/workloads"
)

// This file is sweepd's operability surface (DESIGN.md §4.8): tenancy
// admission glue for the submit handlers, the instrument middleware
// (per-request structured logging + HTTP metrics), and GET /metrics in
// Prometheus text exposition format. Everything is hand-rolled on the
// standard library — the counters live in the coordinator, cache and
// tenant registry, and this file only formats them.

// requestToken extracts the client's API token: "Authorization:
// Bearer <token>" or the X-Api-Token header. Empty = anonymous.
func requestToken(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(tok)
		}
	}
	return r.Header.Get("X-Api-Token")
}

// admit runs tenancy admission for a submission of n expanded points
// and writes the full HTTP rejection itself when admission fails:
// 401 missing token, 403 unknown token, 413 oversized grid, 429 with
// Retry-After for rate or quota exhaustion. ok=false means the
// handler must return without doing anything.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, n int) (*tenant.Admission, bool) {
	adm, err := s.tenants.Admit(requestToken(r), n)
	if err == nil {
		return adm, true
	}
	if rejectToken(w, err) {
		return nil, false
	}
	var le *tenant.LimitError
	switch {
	case errors.As(err, &le) && le.Transient():
		w.Header().Set("Retry-After", retryAfterSeconds(le.RetryAfter))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.As(err, &le):
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
	return nil, false
}

// authorize gates an operator write (POST /cache/gc) on a known token
// when the registry is enforcing; an open registry lets everyone in.
// ok=false means the 401 or 403 answer has been written.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) bool {
	if !s.tenants.Enforcing() {
		return true
	}
	// Resolve fails only with ErrNoToken or ErrUnknownToken.
	if _, err := s.tenants.Resolve(requestToken(r)); err != nil {
		rejectToken(w, err)
		return false
	}
	return true
}

// rejectToken writes the answer to a token the registry refused — 401
// when it is missing, 403 when it is unknown — and reports whether err
// was such a refusal.
func rejectToken(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, tenant.ErrNoToken):
		writeError(w, http.StatusUnauthorized, "%v", err)
	case errors.Is(err, tenant.ErrUnknownToken):
		writeError(w, http.StatusForbidden, "%v", err)
	default:
		return false
	}
	return true
}

// retryAfterSeconds renders a back-off hint as the integer-seconds
// form of the Retry-After header, never below 1s.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// statusWriter captures the response code for logging/metrics. It
// forwards Flush so the NDJSON stream handlers (which type-assert
// http.Flusher) keep streaming through the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeLabel normalizes a request path to its route pattern so metric
// label cardinality stays bounded no matter how many sweep ids or
// cache keys clients touch.
func routeLabel(r *http.Request) string {
	seg := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	route := "/" + seg[0]
	switch seg[0] {
	case "sweep", "explore":
		if len(seg) >= 2 {
			route += "/{id}"
		}
		if len(seg) >= 3 {
			route += "/" + seg[2]
		}
	case "cache":
		if len(seg) >= 2 {
			switch seg[1] {
			case "export", "gc":
				route += "/" + seg[1]
			default:
				route += "/{key}"
			}
		}
	case "trace":
		if len(seg) >= 2 {
			route += "/{id}"
		}
	case "workers", "work":
		if len(seg) >= 2 {
			route += "/" + seg[1]
		}
	case "debug":
		route = "/debug/pprof"
	}
	return r.Method + " " + route
}

// httpStats aggregates request counts and latencies per route. The
// per-route latency histogram shares the coordinator's duration bucket
// scheme (DESIGN.md §4.9), and its exact running sum and count are
// what the soak harness's latency reconciliation reads.
type httpStats struct {
	mu       sync.Mutex
	requests map[string]uint64 // "route|code" → count
	latHist  map[string]*obs.Histogram
}

func (h *httpStats) record(route string, code int, elapsed time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.requests == nil {
		h.requests = make(map[string]uint64)
		h.latHist = make(map[string]*obs.Histogram)
	}
	h.requests[route+"|"+strconv.Itoa(code)]++
	hist, ok := h.latHist[route]
	if !ok {
		hist = obs.NewHistogram(obs.DurationBuckets())
		h.latHist[route] = hist
	}
	hist.Observe(elapsed.Seconds())
}

// instrument wraps the route table with per-request accounting: every
// response's route/status/latency lands in httpStats, and with a
// logger configured each request emits one structured line.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		route := routeLabel(r)
		elapsed := time.Since(start)
		s.httpStats.record(route, sw.status, elapsed)
		if s.logger != nil {
			name, _ := s.tenants.Resolve(requestToken(r))
			s.logger.Info("request",
				"method", r.Method,
				"route", route,
				"tenant", name,
				"status", sw.status,
				"latency_ms", float64(elapsed.Microseconds())/1000)
		}
	})
}

// promWriter accumulates Prometheus text-format exposition lines.
type promWriter struct{ b strings.Builder }

func (p *promWriter) header(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	parts := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, kv[i], escapeLabel(kv[i+1])))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (p *promWriter) sample(name, labelSet string, v float64) {
	fmt.Fprintf(&p.b, "%s%s %s\n", name, labelSet, strconv.FormatFloat(v, 'g', -1, 64))
}

func (p *promWriter) counter(name, help string, v uint64) {
	p.header(name, help, "counter")
	p.sample(name, "", float64(v))
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.sample(name, "", v)
}

// histogram emits one complete single-series histogram family.
func (p *promWriter) histogram(name, help string, snap obs.HistSnapshot) {
	p.header(name, help, "histogram")
	p.histSeries(name, snap)
}

// histSeries emits one histogram series — cumulative buckets with
// canonical le labels, the +Inf bucket, and the _sum/_count pair —
// under optional extra labels (the caller writes the family header, so
// labeled series like per-route latencies share one HELP/TYPE block).
func (p *promWriter) histSeries(name string, snap obs.HistSnapshot, kv ...string) {
	for i, b := range snap.Bounds {
		le := strconv.FormatFloat(b, 'g', -1, 64)
		p.sample(name+"_bucket", labels(append(append([]string(nil), kv...), "le", le)...),
			float64(snap.Counts[i]))
	}
	p.sample(name+"_bucket", labels(append(append([]string(nil), kv...), "le", "+Inf")...),
		float64(snap.Count))
	p.sample(name+"_sum", labels(kv...), snap.Sum)
	p.sample(name+"_count", labels(kv...), float64(snap.Count))
}

// handleMetrics serves GET /metrics: coordinator queue/lease gauges
// and lifetime counters, cache traffic, per-tenant admission totals,
// and the HTTP request table — everything an operator needs to see
// overload, lease churn or a misbehaving tenant at a glance.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := &promWriter{}

	st := s.coord.Status()
	p.gauge("sweepd_pending_shards", "Shards waiting in the coordinator queue.", float64(st.PendingShards))
	p.gauge("sweepd_pending_points", "Points waiting in the coordinator queue.", float64(st.PendingPoints))
	p.gauge("sweepd_active_leases", "Work leases currently held by workers.", float64(st.ActiveLeases))
	p.gauge("sweepd_workers", "Workers in the registry.", float64(len(st.Workers)))
	degraded := 0.0
	if st.JournalErr != "" {
		degraded = 1
	}
	p.gauge("sweepd_journal_degraded", "1 after a state-dir persistence failure (see GET /federation), else 0.", degraded)
	p.gauge("sweepd_journal_wal_bytes", "Bytes in the coordinator's write-ahead log (0 without -state).", float64(st.JournalBytes))

	// Job-store occupancy: what -retain bounds (running jobs count
	// toward it but are never evicted).
	s.mu.Lock()
	sweeps, explores := len(s.sweeps.jobs), len(s.explores.jobs)
	s.mu.Unlock()
	p.gauge("sweepd_sweeps_retained", "Sweeps in the job store, running and finished.", float64(sweeps))
	p.gauge("sweepd_explores_retained", "Explorations in the job store, running and finished.", float64(explores))

	// Per-worker load and throughput (DESIGN.md §4.9): active lanes and
	// the EWMA points/s fed by each completion's w:simulate span.
	p.header("sweepd_worker_active_leases", "Leases currently held, per worker.", "gauge")
	for _, wk := range st.Workers {
		p.sample("sweepd_worker_active_leases",
			labels("worker", wk.Name, "id", wk.ID), float64(wk.ActiveLeases))
	}
	p.header("sweepd_worker_points_per_sec", "EWMA simulation throughput, per worker.", "gauge")
	for _, wk := range st.Workers {
		p.sample("sweepd_worker_points_per_sec",
			labels("worker", wk.Name, "id", wk.ID), wk.PointsPerSec)
	}
	// Each worker's trace cache, as its last heartbeat reported it: the
	// memory a remote worker's traces hold, which its own process
	// exports nowhere.
	p.header("sweepd_worker_trace_cache_entries", "Emulated traces memoized in the worker's process, per worker.", "gauge")
	for _, wk := range st.Workers {
		p.sample("sweepd_worker_trace_cache_entries",
			labels("worker", wk.Name, "id", wk.ID), float64(wk.TraceCache.Entries))
	}
	p.header("sweepd_worker_trace_cache_bytes", "Heap bytes held by the worker process's memoized traces, per worker.", "gauge")
	for _, wk := range st.Workers {
		p.sample("sweepd_worker_trace_cache_bytes",
			labels("worker", wk.Name, "id", wk.ID), float64(wk.TraceCache.Bytes))
	}

	cc := s.coord.Counters()
	p.counter("sweepd_journal_compactions_total", "Write-ahead log compactions (atomic rewrites) completed.", cc.JournalCompactions)
	p.counter("sweepd_jobs_submitted_total", "Jobs accepted by the coordinator.", cc.JobsSubmitted)
	p.counter("sweepd_jobs_done_total", "Jobs fully resolved.", cc.JobsDone)
	p.counter("sweepd_points_submitted_total", "Points accepted by the coordinator.", cc.PointsSubmitted)
	p.counter("sweepd_points_done_total", "Points resolved (simulated, cached or failed).", cc.PointsDone)
	p.counter("sweepd_points_simulated_total", "Points resolved by fresh simulation.", cc.PointsSimulated)
	p.counter("sweepd_points_cached_total", "Points served from the shared cache.", cc.PointsCached)
	p.counter("sweepd_points_failed_total", "Points resolved with an error outcome.", cc.PointsFailed)
	p.counter("sweepd_leases_granted_total", "Work leases granted.", cc.LeasesGranted)
	p.counter("sweepd_lease_renewals_total", "Lease renewals accepted.", cc.LeaseRenewals)
	p.counter("sweepd_lease_expiries_total", "Leases lost to TTL expiry.", cc.LeaseExpiries)
	p.counter("sweepd_shards_completed_total", "Shards completed and verified.", cc.ShardsCompleted)
	p.counter("sweepd_shards_requeued_total", "Shards requeued after expiry or rejection.", cc.ShardsRequeued)
	p.counter("sweepd_shards_abandoned_total", "Shards failed after exhausting lease attempts.", cc.ShardsAbandoned)
	p.counter("sweepd_completions_rejected_total", "Shard completions that failed verification.", cc.CompletionsRejected)

	// Orchestration latency histograms (DESIGN.md §4.9). Queue wait,
	// service time and lease age share the coarse duration buckets;
	// per-point simulation time uses the fine sub-millisecond scheme.
	ch := s.coord.Histograms()
	p.histogram("sweepd_shard_queue_wait_seconds",
		"Shard wait from enqueue to lease grant.", ch.QueueWait)
	p.histogram("sweepd_shard_service_seconds",
		"Worker-reported shard simulation time.", ch.Service)
	p.histogram("sweepd_point_sim_seconds",
		"Per-point simulation time, as reported by workers.", ch.PointSim)
	p.histogram("sweepd_lease_age_seconds",
		"Lease age at successful completion.", ch.LeaseAge)

	uptime := time.Since(s.started).Seconds()
	p.gauge("sweepd_uptime_seconds", "Seconds since this server started.", uptime)
	rate := 0.0
	if uptime > 0 {
		rate = float64(cc.PointsSimulated) / uptime
	}
	p.gauge("sweepd_points_simulated_per_sec", "Lifetime average simulation throughput.", rate)

	// Go runtime health, so one scrape shows resource pressure next to
	// queue depth without a sidecar exporter.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gauge("sweepd_goroutines", "Live goroutines in this process.", float64(runtime.NumGoroutine()))
	p.gauge("sweepd_heap_alloc_bytes", "Bytes of live heap objects.", float64(ms.HeapAlloc))
	p.header("sweepd_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	p.sample("sweepd_gc_pause_seconds_total", "", float64(ms.PauseTotalNs)/1e9)
	p.counter("sweepd_gc_cycles_total", "Completed GC cycles.", uint64(ms.NumGC))

	// The process-wide trace cache exists only where local workers
	// simulate; a pure coordinator never builds a trace.
	if s.simulates {
		n, b := workloads.TraceCacheStats()
		p.gauge("sweepd_trace_cache_entries", "Emulated traces memoized in this process.", float64(n))
		p.gauge("sweepd_trace_cache_bytes", "Heap bytes held by the memoized traces' columns.", float64(b))
	}

	cs := s.cache.Stats()
	p.gauge("sweepd_cache_entries", "Results in the shared cache.", float64(cs.Entries))
	p.counter("sweepd_cache_hits_total", "Cache lookups served locally.", uint64(cs.Hits))
	p.counter("sweepd_cache_misses_total", "Cache lookups that missed.", uint64(cs.Misses))

	tenants := s.tenants.Snapshot()
	p.header("sweepd_tenant_accepted_total", "Submissions admitted, per tenant.", "counter")
	for _, t := range tenants {
		p.sample("sweepd_tenant_accepted_total", labels("tenant", t.Name), float64(t.Counters.Accepted))
	}
	p.header("sweepd_tenant_accepted_points_total", "Expanded points admitted, per tenant.", "counter")
	for _, t := range tenants {
		p.sample("sweepd_tenant_accepted_points_total", labels("tenant", t.Name), float64(t.Counters.AcceptedPoints))
	}
	p.header("sweepd_tenant_rejected_total", "Submissions rejected, per tenant and reason.", "counter")
	for _, t := range tenants {
		for _, rc := range []struct {
			reason string
			n      uint64
		}{
			{tenant.KindGridPoints, t.Counters.RejectedSize},
			{tenant.KindRate, t.Counters.RejectedRate},
			{"quota", t.Counters.RejectedQuota},
		} {
			p.sample("sweepd_tenant_rejected_total",
				labels("tenant", t.Name, "reason", rc.reason), float64(rc.n))
		}
	}
	p.header("sweepd_tenant_pending_points", "Admitted-but-unfinished points, per tenant.", "gauge")
	for _, t := range tenants {
		p.sample("sweepd_tenant_pending_points", labels("tenant", t.Name), float64(t.PendingPoints))
	}
	p.header("sweepd_tenant_running_jobs", "Jobs in flight, per tenant.", "gauge")
	for _, t := range tenants {
		p.sample("sweepd_tenant_running_jobs", labels("tenant", t.Name), float64(t.RunningJobs))
	}

	s.httpStats.mu.Lock()
	reqKeys := make([]string, 0, len(s.httpStats.requests))
	for k := range s.httpStats.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Strings(reqKeys)
	p.header("sweepd_http_requests_total", "HTTP requests served, per route and status.", "counter")
	for _, k := range reqKeys {
		route, code, _ := strings.Cut(k, "|")
		p.sample("sweepd_http_requests_total",
			labels("route", route, "code", code), float64(s.httpStats.requests[k]))
	}
	latKeys := make([]string, 0, len(s.httpStats.latHist))
	for k := range s.httpStats.latHist {
		latKeys = append(latKeys, k)
	}
	sort.Strings(latKeys)
	// Per-route latency as a real histogram. Its _sum/_count pair is the
	// exact running total, not derived from the buckets, so dashboards
	// built on the old summary still work.
	p.header("sweepd_http_request_seconds", "Request latency, per route.", "histogram")
	for _, k := range latKeys {
		p.histSeries("sweepd_http_request_seconds", s.httpStats.latHist[k].Snapshot(), "route", k)
	}
	s.httpStats.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(p.b.String()))
}
