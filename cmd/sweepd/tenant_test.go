package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/tenant"
)

// newTenantServer starts a server under an enforcing registry built
// from cfg. localWorkers < 0 gives a pure coordinator whose jobs never
// finish — the tool for quota-exhaustion tests.
func newTenantServer(t *testing.T, cfg tenant.Config, localWorkers int) (*httptest.Server, *Server) {
	t.Helper()
	reg, err := tenant.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(ServerConfig{Tenants: reg, LocalWorkers: localWorkers})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// submitAs POSTs a grid under a token and returns the raw response.
func submitAs(t *testing.T, ts *httptest.Server, token string, g sweep.Grid) *http.Response {
	t.Helper()
	body, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// wantStatus drains a response asserting its code, returning the body.
func wantStatus(t *testing.T, resp *http.Response, want int) string {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, want, buf.String())
	}
	return buf.String()
}

func smallGrid() sweep.Grid {
	return sweep.Grid{Workloads: []string{"go"}, Policies: []string{"conv"},
		IntRegs: []int{48}, Scale: testScale}
}

func TestTenantAuth(t *testing.T) {
	ts, _ := newTenantServer(t, tenant.Config{
		Tenants: []tenant.Tenant{{Name: "alice", Token: "tok-a"}},
	}, 1)

	// No token → 401; unknown token → 403; good token → 202.
	wantStatus(t, submitAs(t, ts, "", smallGrid()), http.StatusUnauthorized)
	wantStatus(t, submitAs(t, ts, "wrong", smallGrid()), http.StatusForbidden)
	body := wantStatus(t, submitAs(t, ts, "tok-a", smallGrid()), http.StatusAccepted)
	var out struct{ ID string }
	if json.Unmarshal([]byte(body), &out) != nil || out.ID == "" {
		t.Fatalf("no sweep id in %s", body)
	}

	// The X-Api-Token spelling works too.
	g, _ := json.Marshal(smallGrid())
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/sweep", bytes.NewReader(g))
	req.Header.Set("X-Api-Token", "tok-a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusAccepted)

	// The job document names the tenant under an enforcing registry.
	job := pollDone(t, ts, out.ID)
	if job.Tenant != "alice" {
		t.Fatalf("job tenant %q, want alice", job.Tenant)
	}

	// Reads stay open: no token needed to poll or scrape.
	resp, err = http.Get(ts.URL + "/sweep/" + out.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
}

// TestAnonymousCannotSeedCache: leased completions are the only write
// into the shared cache. An anonymous PUT of a fabricated result under
// a point's valid key must be refused, and a tenant's later sweep of
// that point must simulate it rather than serve the fabrication.
func TestAnonymousCannotSeedCache(t *testing.T) {
	ts, _ := newTenantServer(t, tenant.Config{
		Tenants: []tenant.Tenant{{Name: "alice", Token: "tok-a"}},
	}, 1)

	pt := smallGrid().Expand()[0]
	key, err := pt.Key()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(map[string]any{"point": pt, "result": map[string]float64{"IPC": 99}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+key, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Errorf("anonymous PUT /cache/%.12s… accepted: status %d", key, resp.StatusCode)
	}

	body := wantStatus(t, submitAs(t, ts, "tok-a", smallGrid()), http.StatusAccepted)
	var out struct{ ID string }
	if err := json.Unmarshal([]byte(body), &out); err != nil || out.ID == "" {
		t.Fatalf("no sweep id in %s", body)
	}
	job := pollDone(t, ts, out.ID)
	if job.Results.Stats.Simulated != 1 {
		t.Errorf("alice's sweep was not simulated: %+v", job.Results.Stats)
	}
	if r := job.Results.Outcomes[0].Result; r == nil || r.IPC == 99 {
		t.Errorf("alice's sweep served a result no simulation produced: %+v", r)
	}
}

// TestCacheGCRequiresToken: under an enforcing registry POST /cache/gc
// deletes corpus entries only for a known token — 401 without one, 403
// for an unknown one — and an authorized GC still keeps every key a
// retained sweep names.
func TestCacheGCRequiresToken(t *testing.T) {
	ts, srv := newTenantServer(t, tenant.Config{
		Tenants: []tenant.Tenant{{Name: "alice", Token: "tok-a"}},
	}, 1)

	body := wantStatus(t, submitAs(t, ts, "tok-a", smallGrid()), http.StatusAccepted)
	var out struct{ ID string }
	if err := json.Unmarshal([]byte(body), &out); err != nil || out.ID == "" {
		t.Fatalf("no sweep id in %s", body)
	}
	pollDone(t, ts, out.ID)
	const orphan = "orphan-key-no-job-names"
	srv.cache.Put(orphan, &pipeline.Result{})

	gc := func(token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/cache/gc", nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	wantStatus(t, gc(""), http.StatusUnauthorized)
	wantStatus(t, gc("wrong"), http.StatusForbidden)
	if !cacheKeys(t, srv.cache)[orphan] {
		t.Fatal("a refused GC removed entries")
	}

	var res map[string]int
	if err := json.Unmarshal([]byte(wantStatus(t, gc("tok-a"), http.StatusOK)), &res); err != nil {
		t.Fatal(err)
	}
	after := cacheKeys(t, srv.cache)
	if after[orphan] {
		t.Error("authorized GC kept a key no retained job names")
	}
	for _, key := range gridKeys(smallGrid()) {
		if !after[key] {
			t.Errorf("authorized GC dropped retained key %.12s…", key)
		}
	}
	if res["removed"] != 1 || res["entries"] != len(after) {
		t.Errorf("gc reported %v; want 1 removed, %d left", res, len(after))
	}
}

func TestTenantOversizedGrid413(t *testing.T) {
	ts, _ := newTenantServer(t, tenant.Config{
		Tenants: []tenant.Tenant{
			{Name: "small", Token: "tok-s", Quota: tenant.Quota{MaxGridPoints: 4}},
		},
	}, -1)

	big := sweep.Grid{Workloads: []string{"go", "tomcatv"}, Policies: []string{"conv", "extended"},
		IntRegs: []int{40, 48}, Scale: testScale} // 8 points > cap 4
	resp := submitAs(t, ts, "tok-s", big)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("size rejection must not carry Retry-After, got %q", ra)
	}
	body := wantStatus(t, resp, http.StatusRequestEntityTooLarge)
	if !strings.Contains(body, "8 points") {
		t.Errorf("rejection should name the expanded size: %s", body)
	}

	// At the cap it sails through admission.
	ok := sweep.Grid{Workloads: []string{"go", "tomcatv"}, Policies: []string{"conv", "extended"},
		IntRegs: []int{48}, Scale: testScale} // 4 points
	wantStatus(t, submitAs(t, ts, "tok-s", ok), http.StatusAccepted)
}

func TestTenantRateLimit429(t *testing.T) {
	ts, _ := newTenantServer(t, tenant.Config{
		Tenants: []tenant.Tenant{
			{Name: "slow", Token: "tok-r", Quota: tenant.Quota{RatePerSec: 0.5, Burst: 1}},
		},
	}, -1)

	wantStatus(t, submitAs(t, ts, "tok-r", smallGrid()), http.StatusAccepted)
	resp := submitAs(t, ts, "tok-r", smallGrid())
	ra := resp.Header.Get("Retry-After")
	wantStatus(t, resp, http.StatusTooManyRequests)
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want integer seconds >= 1", ra)
	}
}

func TestTenantQuotaExhaustion429(t *testing.T) {
	// Pure coordinator: accepted jobs never finish, so pending points
	// and job slots stay occupied for the whole test.
	ts, _ := newTenantServer(t, tenant.Config{
		Tenants: []tenant.Tenant{
			{Name: "p", Token: "tok-p", Quota: tenant.Quota{MaxPendingPoints: 1}},
			{Name: "j", Token: "tok-j", Quota: tenant.Quota{MaxConcurrentJobs: 1}},
		},
	}, -1)

	// Pending-points quota: the first single-point sweep fills it.
	wantStatus(t, submitAs(t, ts, "tok-p", smallGrid()), http.StatusAccepted)
	resp := submitAs(t, ts, "tok-p", smallGrid())
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("pending-points 429 must carry Retry-After")
	}
	body := wantStatus(t, resp, http.StatusTooManyRequests)
	if !strings.Contains(body, "pending") {
		t.Errorf("rejection should name the quota: %s", body)
	}

	// Concurrent-jobs quota.
	wantStatus(t, submitAs(t, ts, "tok-j", smallGrid()), http.StatusAccepted)
	resp = submitAs(t, ts, "tok-j", smallGrid())
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("concurrent-jobs 429 must carry Retry-After")
	}
	wantStatus(t, resp, http.StatusTooManyRequests)
}

// TestTenantQuotaReleasedOnCompletion proves Admission.Done runs when
// a job finishes: a 1-job quota admits a second sweep after the first
// completes.
func TestTenantQuotaReleasedOnCompletion(t *testing.T) {
	ts, _ := newTenantServer(t, tenant.Config{
		Tenants: []tenant.Tenant{
			{Name: "one", Token: "tok-1", Quota: tenant.Quota{MaxConcurrentJobs: 1}},
		},
	}, 1)

	body := wantStatus(t, submitAs(t, ts, "tok-1", smallGrid()), http.StatusAccepted)
	var out struct{ ID string }
	json.Unmarshal([]byte(body), &out)
	pollDone(t, ts, out.ID)

	// The slot must come back promptly once the job reports done.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := submitAs(t, ts, "tok-1", smallGrid())
		if resp.StatusCode == http.StatusAccepted {
			resp.Body.Close()
			return
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("job slot never released after completion")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTenantIsolationUnderAbuse hammers the server with one tenant's
// rejected submissions while another tenant's accepted sweep runs to
// completion — the well-behaved tenant's results must be untouched and
// byte-identical to a direct engine run.
func TestTenantIsolationUnderAbuse(t *testing.T) {
	ts, _ := newTenantServer(t, tenant.Config{
		Tenants: []tenant.Tenant{
			{Name: "good", Token: "tok-good", Quota: tenant.Quota{MaxPendingPoints: 10_000}},
			{Name: "abuser", Token: "tok-bad", Quota: tenant.Quota{MaxGridPoints: 1}},
		},
	}, 1)

	g := sweep.Grid{Workloads: []string{"go", "tomcatv"}, Policies: []string{"conv"},
		IntRegs: []int{40, 48}, Scale: testScale}
	body := wantStatus(t, submitAs(t, ts, "tok-good", g), http.StatusAccepted)
	var out struct{ ID string }
	json.Unmarshal([]byte(body), &out)

	// Abuse storm while the good tenant's sweep runs: every submission
	// is over the abuser's 1-point grid cap.
	abuseDone := make(chan int)
	go func() {
		rejected := 0
		for i := 0; i < 50; i++ {
			resp := submitAs(t, ts, "tok-bad", g)
			if resp.StatusCode == http.StatusRequestEntityTooLarge {
				rejected++
			}
			resp.Body.Close()
		}
		abuseDone <- rejected
	}()

	job := pollDone(t, ts, out.ID)
	if rejected := <-abuseDone; rejected != 50 {
		t.Fatalf("%d/50 abusive submissions rejected as 413", rejected)
	}
	if job.Err != "" || job.Results == nil || job.Results.Stats.Errors != 0 {
		t.Fatalf("good tenant's sweep damaged: %+v", job)
	}
	direct, err := (&sweep.Engine{Cache: sweep.NewCache()}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range job.Results.Outcomes {
		a, _ := json.Marshal(o.Result)
		b, _ := json.Marshal(direct.Outcomes[i].Result)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: result drifted under abuse", o.Point)
		}
	}
}

func TestExploreAdmission(t *testing.T) {
	ts, _ := newTenantServer(t, tenant.Config{
		Tenants: []tenant.Tenant{
			// Budget×workloads prices the exploration: cap admits nothing
			// beyond 10 points.
			{Name: "tiny", Token: "tok-t", Quota: tenant.Quota{MaxGridPoints: 10}},
		},
	}, -1)

	spec := map[string]any{"budget": 16, "workloads": []string{"go"}, "scale": testScale}
	blob, _ := json.Marshal(spec)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/explore", bytes.NewReader(blob))
	req.Header.Set("Authorization", "Bearer tok-t")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusRequestEntityTooLarge)

	// Anonymous exploration without a token → 401.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/explore", bytes.NewReader(blob))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusUnauthorized)
}

// TestSubmitBodyBound proves the request size caps: an over-long
// /sweep or /explore body and an over-long body on each token-free
// worker route all answer 413, not 400.
func TestSubmitBodyBound(t *testing.T) {
	ts, _ := newTestServer(t)

	// A structurally valid grid padded past maxGridBytes with JSON the
	// decoder would otherwise accept field-by-field.
	huge := []byte(`{"workloads":["go","` + strings.Repeat("x", maxGridBytes) + `"]}`)
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusRequestEntityTooLarge)

	resp, err = http.Post(ts.URL+"/explore", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusRequestEntityTooLarge)

	// The worker routes take no token, so their bodies need the same
	// bound: a multi-megabyte field must not be buffered whole.
	pad := strings.Repeat("x", maxGridBytes)
	for route, body := range map[string]string{
		"/workers/register":  `{"name":"` + pad + `"}`,
		"/workers/heartbeat": `{"worker_id":"` + pad + `"}`,
		"/work/lease":        `{"worker_id":"` + pad + `"}`,
		"/work/renew":        `{"worker_id":"w","lease_id":"` + pad + `"}`,
	} {
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversized body: status %d, want 413", route, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// A normal-sized body still works after the bound (no regression).
	wantStatus(t, submitAs(t, ts, "", smallGrid()), http.StatusAccepted)
}

// scrapeMetrics fetches /metrics and returns the value of the first
// sample matching the given prefix (name plus any label clause).
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, sample+" "), 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %q in metrics:\n%s", sample, text)
	return 0
}

// TestMetricsCounterMovement scrapes /metrics before and after real
// traffic and asserts the counters move coherently: jobs, points,
// per-tenant admission totals and the HTTP request table.
func TestMetricsCounterMovement(t *testing.T) {
	ts, _ := newTenantServer(t, tenant.Config{
		Tenants: []tenant.Tenant{
			{Name: "alice", Token: "tok-a", Quota: tenant.Quota{MaxGridPoints: 100}},
		},
	}, 1)

	before := scrapeMetrics(t, ts)
	if v := metricValue(t, before, `sweepd_tenant_accepted_total{tenant="alice"}`); v != 0 {
		t.Fatalf("accepted=%v before any traffic", v)
	}

	// One accepted 4-point sweep, one 413 rejection.
	g := sweep.Grid{Workloads: []string{"go", "tomcatv"}, Policies: []string{"conv", "extended"},
		IntRegs: []int{48}, Scale: testScale}
	body := wantStatus(t, submitAs(t, ts, "tok-a", g), http.StatusAccepted)
	var out struct{ ID string }
	json.Unmarshal([]byte(body), &out)
	pollDone(t, ts, out.ID)
	big := sweep.Grid{Workloads: []string{"go", "tomcatv"}, Policies: []string{"conv", "extended", "basic"},
		IntRegs: []int{40, 48, 56, 64, 72, 80, 96, 112, 128}, Scale: testScale} // 54 pts... still under 100
	big.IntRegs = append(big.IntRegs, 136, 144, 152, 160, 168, 176, 184, 192) // 102 pts > 100
	wantStatus(t, submitAs(t, ts, "tok-a", big), http.StatusRequestEntityTooLarge)

	after := scrapeMetrics(t, ts)
	checks := []struct {
		sample string
		want   float64
	}{
		{`sweepd_tenant_accepted_total{tenant="alice"}`, 1},
		{`sweepd_tenant_accepted_points_total{tenant="alice"}`, 4},
		{`sweepd_tenant_rejected_total{tenant="alice",reason="grid_points"}`, 1},
		{`sweepd_tenant_pending_points{tenant="alice"}`, 0},
		{`sweepd_tenant_running_jobs{tenant="alice"}`, 0},
		{`sweepd_jobs_submitted_total`, 1},
		{`sweepd_jobs_done_total`, 1},
		{`sweepd_points_submitted_total`, 4},
		{`sweepd_points_done_total`, 4},
	}
	for _, c := range checks {
		if v := metricValue(t, after, c.sample); v != c.want {
			t.Errorf("%s = %v, want %v", c.sample, v, c.want)
		}
	}
	// Simulated + cached = done (4 fresh points here).
	sim := metricValue(t, after, "sweepd_points_simulated_total")
	cached := metricValue(t, after, "sweepd_points_cached_total")
	if sim+cached != 4 {
		t.Errorf("simulated %v + cached %v != 4", sim, cached)
	}
	// The HTTP table saw the accepted submit (202) and the rejection (413).
	if v := metricValue(t, after, `sweepd_http_requests_total{route="POST /sweep",code="202"}`); v != 1 {
		t.Errorf("http 202 count = %v, want 1", v)
	}
	if v := metricValue(t, after, `sweepd_http_requests_total{route="POST /sweep",code="413"}`); v != 1 {
		t.Errorf("http 413 count = %v, want 1", v)
	}
}

// TestMetricsOnOpenServer: the default (no-token) server serves
// /metrics too, with the anonymous tenant accounted.
func TestMetricsOnOpenServer(t *testing.T) {
	ts, _ := newTestServer(t)
	id := postGrid(t, ts, smallGrid())
	pollDone(t, ts, id)
	text := scrapeMetrics(t, ts)
	if v := metricValue(t, text, `sweepd_tenant_accepted_total{tenant="anonymous"}`); v != 1 {
		t.Errorf("anonymous accepted = %v, want 1", v)
	}
}

// TestNoTokenModeUnchanged locks the compatibility contract: without a
// token registry the job document carries no tenant field — the JSON
// a pre-tenancy client saw, byte for byte.
func TestNoTokenModeUnchanged(t *testing.T) {
	ts, _ := newTestServer(t)
	id := postGrid(t, ts, smallGrid())
	pollDone(t, ts, id)
	resp, err := http.Get(ts.URL + "/sweep/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if strings.Contains(buf.String(), `"tenant"`) {
		t.Fatalf("no-token job document leaks a tenant field:\n%s", buf.String())
	}
	// And a token on an open server is still rejected as unknown, not
	// silently accepted.
	resp = submitAs(t, ts, "some-token", smallGrid())
	wantStatus(t, resp, http.StatusForbidden)
}

// TestPprofGate: sweepd links no profiler, so every /debug/pprof route
// is a 404, with tenancy open or enforced.
func TestPprofGate(t *testing.T) {
	open, _ := newTestServer(t)
	enforced, _ := newTenantServer(t, tenant.Config{
		Tenants: []tenant.Tenant{{Name: "ops", Token: "ops-token"}},
	}, 1)
	for _, ts := range []*httptest.Server{open, enforced} {
		for _, route := range []string{"", "cmdline", "profile", "symbol", "trace", "heap"} {
			req, err := http.NewRequest(http.MethodGet, ts.URL+"/debug/pprof/"+route, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Authorization", "Bearer ops-token")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET /debug/pprof/%s: status %d, want 404", route, resp.StatusCode)
			}
		}
	}
}

// TestUnknownRoutesShareOneSeries: requests no registered route serves
// (random paths under the roots whose segments the labels once copied,
// the removed profiler, an unregistered method) all land on one
// "other" route, so they add one HTTP-metrics series, not one each.
func TestUnknownRoutesShareOneSeries(t *testing.T) {
	ts, _ := newTestServer(t)
	scrapeMetrics(t, ts) // the first scrape adds GET /metrics itself
	before := scrapeMetrics(t, ts)

	rng := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]byte, 1+rng.Intn(8))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	paths := []string{"/debug/pprof/heap", "/sweep/x/y/z"}
	for len(paths) < 100 {
		switch rng.Intn(6) {
		case 0:
			paths = append(paths, "/"+word()+"/"+word())
		case 1:
			paths = append(paths, "/sweep/"+word()+"/"+word())
		case 2:
			paths = append(paths, "/explore/"+word()+"/"+word()+"/"+word())
		case 3:
			paths = append(paths, "/work/"+word())
		case 4:
			paths = append(paths, "/workers/"+word())
		default:
			paths = append(paths, "/cache/"+word())
		}
	}
	do := func(method, path string) {
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 4 {
			t.Errorf("%s %s: status %d, want 4xx", method, path, resp.StatusCode)
		}
	}
	for _, path := range paths {
		do(http.MethodGet, path)
	}
	do("BREW", "/sweeps")
	after := scrapeMetrics(t, ts)

	routes := func(text string) map[string]bool {
		set := map[string]bool{}
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "sweepd_http_request_seconds_count{") {
				set[strings.SplitN(line, `"`, 3)[1]] = true
			}
		}
		return set
	}
	was, now := routes(before), routes(after)
	var added []string
	for r := range now {
		if !was[r] {
			added = append(added, r)
		}
	}
	if len(added) != 1 || added[0] != otherRoute || len(now) != len(was)+1 {
		t.Errorf("unknown requests added route series %q (%d before, %d after), want only %q",
			added, len(was), len(now), otherRoute)
	}
	if v := metricValue(t, after, `sweepd_http_request_seconds_count{route="other"}`); v != 101 {
		t.Errorf("other route counted %v requests, want 101", v)
	}
}

// TestRequestLogging: with a Logger configured every request emits one
// structured line carrying method, route, tenant and status.
func TestRequestLogging(t *testing.T) {
	var buf syncBuffer
	reg, err := tenant.New(tenant.Config{
		Tenants: []tenant.Tenant{{Name: "alice", Token: "tok-a"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(ServerConfig{Tenants: reg, Logger: newTestLogger(&buf)})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	wantStatus(t, submitAs(t, ts, "tok-a", smallGrid()), http.StatusAccepted)
	logged := buf.String()
	for _, want := range []string{"method=POST", `route="POST /sweep"`, "tenant=alice", "status=202"} {
		if !strings.Contains(logged, want) {
			t.Errorf("request log missing %s:\n%s", want, logged)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (slog may be driven from
// concurrent handlers).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func newTestLogger(w *syncBuffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, nil))
}
