package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"
)

// warmPollEvery is the warm job's poll interval, the service
// benchmark's (bench/workloads.go).
const warmPollEvery = 2 * time.Millisecond

// warmServer returns the handler of a durable coordinator with one
// embedded worker whose cache holds every result of the acceptance
// grid at testScale, and the grid's submission body.
func warmServer(tb testing.TB) (http.Handler, []byte) {
	tb.Helper()
	srv, err := openStateServer(tb, ServerConfig{StateDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	body, err := json.Marshal(seedAcceptanceGrid(tb, srv.cache))
	if err != nil {
		tb.Fatal(err)
	}
	return srv.Handler(), body
}

// pollResponse is a ResponseWriter that drops the body once it has
// seen whether the document is a finished job's.
type pollResponse struct {
	discardResponse
	head []byte
}

func (p *pollResponse) Write(b []byte) (int, error) {
	if len(p.head) < 64 {
		p.head = append(p.head, b[:min(len(b), 64-len(p.head))]...)
	}
	return p.discardResponse.Write(b)
}

// warmJob runs one warm job against h as the service benchmark's
// client does: submit, then poll GET /sweep/{id} every warmPollEvery
// until the document is the finished one. The handler is called
// directly, so what the job allocates is the coordinator's.
func warmJob(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	var sub struct{ ID string }
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || sub.ID == "" {
		tb.Fatalf("submit: HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
	deadline := time.Now().Add(time.Minute)
	for {
		w := &pollResponse{discardResponse: discardResponse{header: http.Header{}}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/sweep/"+sub.ID, nil))
		if bytes.Contains(w.head, []byte(`"state": "done"`)) {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("job %s not done after a minute", sub.ID)
		}
		time.Sleep(warmPollEvery)
	}
}

// gcCycles reads the process's completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// maxWarmJobAlloc bounds what one warm acceptance-grid job allocates
// in the coordinator: its submission, polls and the finished GET.
// The job allocated about 395 KB before progress named its point only
// when read, the GET wrote points and keys straight into its buffer and
// keying stopped building a map and a blob per machine.
const maxWarmJobAlloc = 220 << 10

// TestWarmJobAllocates pins a warm job's coordinator allocations: at
// sweepd's heap floor, whatever a job allocates is paid for in GC
// cycles.
func TestWarmJobAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures under the race detector")
	}
	h, body := warmServer(t)
	for i := 0; i < 3; i++ {
		warmJob(t, h, body)
	}
	const jobs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		warmJob(t, h, body)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / jobs
	t.Logf("a warm job allocates %d B", per)
	if per > maxWarmJobAlloc {
		t.Errorf("a warm job allocates %d B, want at most %d", per, maxWarmJobAlloc)
	}
}

// BenchmarkWarmJob runs warm jobs of the cached 192-point acceptance
// grid at testScale through a durable coordinator with one embedded
// worker, under sweepd's heap pacing (paceHeap): one op is a submit,
// polls every 2 ms until the job is done, and the finished GET. It
// reports the GC cycles each job costs beside -benchmem's figures.
func BenchmarkWarmJob(b *testing.B) {
	defer debug.SetGCPercent(gcPercent())
	paceHeap()
	h, body := warmServer(b)
	warmJob(b, h, body)
	b.ReportAllocs()
	b.ResetTimer()
	cycles := gcCycles()
	for i := 0; i < b.N; i++ {
		warmJob(b, h, body)
	}
	b.ReportMetric(float64(gcCycles()-cycles)/float64(b.N), "gc-cycles/op")
}
