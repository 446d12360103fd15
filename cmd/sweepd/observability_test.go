package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"earlyrelease/internal/obs"
	"earlyrelease/internal/sweep"
)

// submitTraced posts a grid with an explicit X-Trace-Id and returns
// the sweep id and the trace id the server adopted.
func submitTraced(t *testing.T, ts *httptest.Server, g sweep.Grid, traceID string) (string, string) {
	t.Helper()
	body, _ := json.Marshal(g)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/sweep", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweep: status %d", resp.StatusCode)
	}
	var out struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if hdr := resp.Header.Get("X-Trace-Id"); hdr != out.TraceID {
		t.Fatalf("X-Trace-Id header %q disagrees with body trace_id %q", hdr, out.TraceID)
	}
	return out.ID, out.TraceID
}

// TestTraceEndpoints drives one sweep end to end and checks both trace
// surfaces: /sweep/{id}/trace resolves through the job table,
// /trace/{id} resolves by the adopted trace id, the timeline is
// complete and ordered, and ?format=text renders the human view.
func TestTraceEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	g := sweep.Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
		IntRegs: []int{40, 48}, Scale: testScale}
	id, traceID := submitTraced(t, ts, g, "client-chosen-trace")
	if traceID != "client-chosen-trace" {
		t.Fatalf("server replaced the client trace id with %q", traceID)
	}
	pollDone(t, ts, id)

	for _, path := range []string{"/sweep/" + id + "/trace", "/trace/" + traceID} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		var tl obs.Timeline
		if err := json.Unmarshal(body, &tl); err != nil {
			t.Fatalf("GET %s: bad timeline JSON: %v", path, err)
		}
		if tl.TraceID != traceID {
			t.Fatalf("GET %s: timeline for %q, want %q", path, tl.TraceID, traceID)
		}
		if !timelineComplete(tl) {
			t.Fatalf("GET %s: incomplete timeline:\n%s", path, tl.Render())
		}
		for i := 1; i < len(tl.Spans); i++ {
			if tl.Spans[i].StartNS < tl.Spans[i-1].StartNS {
				t.Fatalf("GET %s: spans out of order at %d", path, i)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/sweep/" + id + "/trace?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text render content type: %q", ct)
	}
	if !strings.Contains(string(text), "submit") || !strings.Contains(string(text), "done") {
		t.Fatalf("text render missing lifecycle spans:\n%s", text)
	}

	if resp, err := http.Get(ts.URL + "/trace/no-such-trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown trace: status %d", resp.StatusCode)
		}
	}
}

// TestSubmitMintsTraceID checks the no-header path mints a usable id
// and that a traceparent header is adopted.
func TestSubmitMintsTraceID(t *testing.T) {
	ts, _ := newTestServer(t)
	g := sweep.Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
		IntRegs: []int{48}, Scale: testScale}

	id, traceID := submitTraced(t, ts, g, "")
	if traceID == "" || obs.SanitizeTraceID(traceID) != traceID {
		t.Fatalf("minted trace id %q not usable", traceID)
	}
	pollDone(t, ts, id)

	body, _ := json.Marshal(g)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/sweep", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("traceparent not adopted: %q", got)
	}
}

// TestMetricsExpositionLint scrapes /metrics after real traffic and
// enforces the exposition contract the CI soak relies on: HELP/TYPE
// precede every family's samples, no duplicate series, histogram
// buckets are monotone non-decreasing in le with le="+Inf" matching
// _count, and the new histogram families are populated.
func TestMetricsExpositionLint(t *testing.T) {
	ts, _ := newTestServer(t)
	g := sweep.Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
		IntRegs: []int{40, 48}, Scale: testScale}
	id, _ := submitTraced(t, ts, g, "")
	pollDone(t, ts, id)
	// A remote worker reports its process's trace cache on heartbeats.
	remote := sweep.NewClient(ts.URL)
	reg, err := remote.RegisterWorker("remote")
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.HeartbeatWorker(reg.WorkerID, sweep.TraceCache{Entries: 3, Bytes: 12345}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}

	typed := map[string]string{} // family → type, in declaration order
	helped := map[string]bool{}
	seen := map[string]bool{} // full series (name+labels) → dup check
	buckets := map[string][]struct {
		le float64
		v  float64
	}{}
	counts := map[string]float64{}
	values := map[string]float64{} // series → last sample

	for ln, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			helped[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if !helped[f[2]] {
				t.Errorf("line %d: TYPE %s before its HELP", ln+1, f[2])
			}
			if _, dup := typed[f[2]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, f[2])
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}

		name := line
		labelPart := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("line %d: torn label set: %q", ln+1, line)
			}
			name = line[:i]
			labelPart = line[i : j+1]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name = line[:i]
		}
		fields := strings.Fields(strings.TrimPrefix(line, name+labelPart))
		if len(fields) != 1 {
			t.Fatalf("line %d: want exactly one value: %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("line %d: bad value: %q", ln+1, line)
		}

		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] == "histogram" {
				family = base
			}
		}
		if _, ok := typed[family]; !ok {
			t.Errorf("line %d: sample %s before (or without) its TYPE", ln+1, name)
		}
		series := name + labelPart
		if seen[series] {
			t.Errorf("line %d: duplicate series %s", ln+1, series)
		}
		seen[series] = true
		values[series] = val

		if strings.HasSuffix(name, "_bucket") && typed[family] == "histogram" {
			le := ""
			rest := labelPart
			if i := strings.Index(rest, `le="`); i >= 0 {
				le = rest[i+4:]
				le = le[:strings.IndexByte(le, '"')]
				rest = labelPart[:i] + labelPart[i+4+len(le):]
			}
			bound := 1e308
			if le != "+Inf" {
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("line %d: bad le %q", ln+1, le)
				}
			}
			key := family + rest
			buckets[key] = append(buckets[key], struct{ le, v float64 }{bound, val})
		}
		if strings.HasSuffix(name, "_count") && typed[family] == "histogram" {
			counts[family+labelPart] = val
		}
	}

	for series, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		for i := 1; i < len(bs); i++ {
			if bs[i].v < bs[i-1].v {
				t.Errorf("%s: bucket counts not monotone at le=%g (%g < %g)",
					series, bs[i].le, bs[i].v, bs[i-1].v)
			}
		}
		inf := bs[len(bs)-1]
		if inf.le != 1e308 {
			t.Errorf("%s: no +Inf bucket", series)
		}
	}

	// The orchestration histograms must be populated by the sweep that
	// just ran — and spread over at least two buckets per family where
	// per-point times vary (the acceptance bar for bucket schemes that
	// actually discriminate).
	for _, family := range []string{
		"sweepd_shard_service_seconds", "sweepd_point_sim_seconds",
		"sweepd_lease_age_seconds", "sweepd_shard_queue_wait_seconds",
	} {
		if typed[family] != "histogram" {
			t.Errorf("%s: not exposed as a histogram (%q)", family, typed[family])
		}
		total := 0.0
		for series, v := range counts {
			if strings.HasPrefix(series, family) {
				total += v
			}
		}
		if total == 0 {
			t.Errorf("%s: unpopulated after a completed sweep", family)
		}
	}
	if typed["sweepd_http_request_seconds"] != "histogram" {
		t.Errorf("http request latency not exposed as histogram")
	}
	for _, name := range []string{"sweepd_goroutines", "sweepd_heap_alloc_bytes",
		"sweepd_gc_pause_seconds_total", "sweepd_worker_points_per_sec"} {
		if _, ok := typed[name]; !ok {
			t.Errorf("runtime/worker metric %s missing", name)
		}
	}
	for name, want := range map[string]float64{
		"sweepd_worker_trace_cache_entries": 3,
		"sweepd_worker_trace_cache_bytes":   12345,
	} {
		if typed[name] != "gauge" {
			t.Errorf("%s: not exposed as a gauge (%q)", name, typed[name])
		}
		series := name + labels("worker", "remote", "id", reg.WorkerID)
		if v, ok := values[series]; !ok || v != want {
			t.Errorf("%s = %g (exposed %v), want %g from the heartbeat", series, v, ok, want)
		}
	}
	// Job-store occupancy and journal health: the one sweep above is
	// retained, and a memory-only coordinator has no journal to
	// degrade, size or compact.
	for name, want := range map[string]float64{
		"sweepd_sweeps_retained":           1,
		"sweepd_explores_retained":         0,
		"sweepd_journal_degraded":          0,
		"sweepd_journal_wal_bytes":         0,
		"sweepd_journal_compactions_total": 0,
	} {
		kind := "gauge"
		if strings.HasSuffix(name, "_total") {
			kind = "counter"
		}
		if typed[name] != kind {
			t.Errorf("%s: not exposed as a %s (%q)", name, kind, typed[name])
		}
		if v, ok := values[name]; !ok || v != want {
			t.Errorf("%s = %g (exposed %v), want %g", name, v, ok, want)
		}
	}
	// The local worker built at least the go trace, so the trace cache
	// gauges report it.
	for _, name := range []string{"sweepd_trace_cache_entries", "sweepd_trace_cache_bytes"} {
		if typed[name] != "gauge" {
			t.Errorf("%s: not exposed as a gauge (%q)", name, typed[name])
		}
		if values[name] <= 0 {
			t.Errorf("%s = %g after a simulated sweep, want > 0", name, values[name])
		}
	}
}

// TestHTTPLatencyExposition pins the HTTP families of /metrics for a
// fixed sequence of recorded requests: the request counters and, per
// route, the latency histogram's buckets, sum and count, the sum
// accumulated in the order the requests were recorded.
func TestHTTPLatencyExposition(t *testing.T) {
	srv := NewServerWith(ServerConfig{LocalWorkers: -1})
	t.Cleanup(srv.Close)
	for _, r := range []struct {
		route string
		code  int
		us    int
	}{
		{"GET /sweep", 200, 90}, {"GET /sweep", 200, 110}, {"GET /sweep", 404, 30},
		{"POST /work/lease", 200, 2100}, {"GET /sweep", 200, 1_700_000}, {"POST /work/lease", 200, 130},
	} {
		srv.httpStats.record(r.route, r.code, time.Duration(r.us)*time.Microsecond)
	}
	rec := httptest.NewRecorder()
	srv.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var lines []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.Contains(line, "sweepd_http_") {
			lines = append(lines, line)
		}
	}
	got := strings.Join(lines, "\n")
	const want = `# HELP sweepd_http_requests_total HTTP requests served, per route and status.
# TYPE sweepd_http_requests_total counter
sweepd_http_requests_total{route="GET /sweep",code="200"} 3
sweepd_http_requests_total{route="GET /sweep",code="404"} 1
sweepd_http_requests_total{route="POST /work/lease",code="200"} 2
# HELP sweepd_http_request_seconds Request latency, per route.
# TYPE sweepd_http_request_seconds histogram
sweepd_http_request_seconds_bucket{route="GET /sweep",le="0.001"} 3
sweepd_http_request_seconds_bucket{route="GET /sweep",le="0.0025"} 3
sweepd_http_request_seconds_bucket{route="GET /sweep",le="0.005"} 3
sweepd_http_request_seconds_bucket{route="GET /sweep",le="0.01"} 3
sweepd_http_request_seconds_bucket{route="GET /sweep",le="0.025"} 3
sweepd_http_request_seconds_bucket{route="GET /sweep",le="0.05"} 3
sweepd_http_request_seconds_bucket{route="GET /sweep",le="0.1"} 3
sweepd_http_request_seconds_bucket{route="GET /sweep",le="0.25"} 3
sweepd_http_request_seconds_bucket{route="GET /sweep",le="0.5"} 3
sweepd_http_request_seconds_bucket{route="GET /sweep",le="1"} 3
sweepd_http_request_seconds_bucket{route="GET /sweep",le="2.5"} 4
sweepd_http_request_seconds_bucket{route="GET /sweep",le="5"} 4
sweepd_http_request_seconds_bucket{route="GET /sweep",le="10"} 4
sweepd_http_request_seconds_bucket{route="GET /sweep",le="+Inf"} 4
sweepd_http_request_seconds_sum{route="GET /sweep"} 1.70023
sweepd_http_request_seconds_count{route="GET /sweep"} 4
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="0.001"} 1
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="0.0025"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="0.005"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="0.01"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="0.025"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="0.05"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="0.1"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="0.25"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="0.5"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="1"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="2.5"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="5"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="10"} 2
sweepd_http_request_seconds_bucket{route="POST /work/lease",le="+Inf"} 2
sweepd_http_request_seconds_sum{route="POST /work/lease"} 0.0022299999999999998
sweepd_http_request_seconds_count{route="POST /work/lease"} 2`
	if got != want {
		t.Fatalf("HTTP metrics changed:\n%s", got)
	}
}
