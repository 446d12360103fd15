package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"earlyrelease/internal/pipeline"
)

// fastWait shrinks WaitSweep's poll/backoff clocks for the duration of
// a test so retry exhaustion takes milliseconds, not seconds. Tests
// using it must not run in parallel with each other.
func fastWait(t *testing.T) {
	t.Helper()
	savedMin, savedMax, savedPoll := waitBackoffMin, waitBackoffMax, waitPollEvery
	waitBackoffMin, waitBackoffMax, waitPollEvery = time.Millisecond, 4*time.Millisecond, time.Millisecond
	t.Cleanup(func() {
		waitBackoffMin, waitBackoffMax, waitPollEvery = savedMin, savedMax, savedPoll
	})
}

func sweepDoneBody(t *testing.T) []byte {
	t.Helper()
	blob, err := json.Marshal(map[string]any{
		"state": "done",
		"results": &Results{
			Outcomes: []*Outcome{{Key: "k", Result: &pipeline.Result{Cycles: 1}}},
			Stats:    RunStats{Points: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestWaitSweepRetriesTransientErrors: a connection that dies for a few
// polls and then recovers must not abort the wait.
func TestWaitSweepRetriesTransientErrors(t *testing.T) {
	fastWait(t)
	done := sweepDoneBody(t)
	var polls atomic.Int64
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		n := polls.Add(1)
		if n <= 3 {
			// Kill the connection mid-response: a transport error on
			// the client, not an HTTP status.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return
		}
		w.Write(done)
	}))
	defer srv.Close()

	res, err := NewClient(srv.URL).WaitSweep(context.Background(), "sw-1", nil)
	if err != nil {
		t.Fatalf("WaitSweep did not ride out transient errors: %v", err)
	}
	if len(res.Outcomes) != 1 || res.Outcomes[0].Key != "k" {
		t.Fatalf("wrong results: %+v", res)
	}
	if polls.Load() != 4 {
		t.Errorf("server saw %d polls, want 4 (3 failures + success)", polls.Load())
	}
}

// TestWaitSweepGivesUpAfterBoundedRetries: a permanently dead transport
// must error out after the retry budget instead of looping forever.
func TestWaitSweepGivesUpAfterBoundedRetries(t *testing.T) {
	fastWait(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj := w.(http.Hijacker)
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	defer srv.Close()

	start := time.Now()
	_, err := NewClient(srv.URL).WaitSweep(context.Background(), "sw-1", nil)
	if err == nil {
		t.Fatal("WaitSweep returned nil error against a dead transport")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Errorf("error does not report retry exhaustion: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("retry exhaustion took %s — backoff not bounded", elapsed)
	}
}

// TestWaitSweepHTTPErrorIsFinal: a definitive coordinator answer (404)
// must fail immediately, with no retries.
func TestWaitSweepHTTPErrorIsFinal(t *testing.T) {
	fastWait(t)
	var polls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"no such sweep"}`)
	}))
	defer srv.Close()

	_, err := NewClient(srv.URL).WaitSweep(context.Background(), "sw-404", nil)
	if err == nil || !strings.Contains(err.Error(), "no such sweep") {
		t.Fatalf("want coordinator error, got %v", err)
	}
	if polls.Load() != 1 {
		t.Errorf("HTTP error was retried: %d polls", polls.Load())
	}
}

// TestWaitSweepCancellation: cancelling the context abandons the wait
// promptly even though the sweep never finishes.
func TestWaitSweepCancellation(t *testing.T) {
	fastWait(t)
	running, err := json.Marshal(map[string]any{"state": "running"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(running)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := NewClient(srv.URL).WaitSweep(ctx, "sw-1", nil)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let a few polls happen
	cancel()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitSweep did not return after cancellation")
	}
}

// TestLeaseShardBoundsBody: a coordinator streaming an absurdly large
// lease response must be cut off at the worker's bound instead of
// being buffered wholesale.
func TestLeaseShardBoundsBody(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		// An endless body; the client must stop reading at its cap.
		chunk := []byte(strings.Repeat("x", 1<<20))
		for i := 0; i < (maxResultBytes>>20)+2; i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()

	grant, err := NewClient(srv.URL).LeaseShard("wk-1")
	if err == nil || grant != nil {
		t.Fatalf("oversized lease body accepted: grant=%v err=%v", grant, err)
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("want size-bound error, got: %v", err)
	}
}
