package experiments

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"earlyrelease/internal/sweep"
)

// TestFrontierQuick runs the searched §4.4 energy balance at tiny
// scale: both frontiers non-empty, at least one equal-IPC pair, and
// the extended frontier's headline match no more expensive than the
// conventional configuration it replaces (the paper's claim, searched).
func TestFrontierQuick(t *testing.T) {
	opt := Options{Scale: 8_000, Cache: sweep.NewCache()}
	res, err := Frontier(opt, 12, 1, []string{"tomcatv", "swim"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conv.Frontier) == 0 || len(res.Ext.Frontier) == 0 {
		t.Fatalf("empty frontier: conv %d, ext %d", len(res.Conv.Frontier), len(res.Ext.Frontier))
	}
	if !res.Conv.NonDominated || !res.Ext.NonDominated {
		t.Fatal("dominated entries on a policy frontier")
	}
	for _, e := range res.Conv.Frontier {
		if e.Candidate.Policy != "conv" || len(e.Candidate.Machine) != 0 {
			t.Fatalf("conv frontier left the sizing space: %+v", e.Candidate)
		}
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no equal-IPC balance pairs")
	}
	hl, ok := res.Headline()
	if !ok {
		t.Fatal("no headline pair")
	}
	if hl.ExtIPC < hl.ConvIPC*0.999 {
		t.Fatalf("headline pair does not match IPC: %+v", hl)
	}
	out := res.String()
	for _, want := range []string{"conventional frontier", "extended frontier", "energy balance"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestFrontierDeterministicAndCached: the driver inherits the
// explorer's contracts — the same seed over a warm cache reruns
// without simulating and reproduces the same pairs.
func TestFrontierDeterministicAndCached(t *testing.T) {
	opt := Options{Scale: 8_000, Cache: sweep.NewCache()}
	a, err := Frontier(opt, 10, 2, []string{"tomcatv"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Frontier(opt, 10, 2, []string{"tomcatv"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Conv.Points.Simulated != 0 || b.Ext.Points.Simulated != 0 {
		t.Fatalf("warm rerun simulated: conv %d, ext %d",
			b.Conv.Points.Simulated, b.Ext.Points.Simulated)
	}
	if a.String() != b.String() {
		t.Fatal("warm rerun rendered a different result")
	}
}

// TestFrontierRemoteHonorsContext: against a coordinator whose
// exploration never finishes, canceling the options' Context must end
// the remote frontier search promptly with context.Canceled.
func TestFrontierRemoteHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.Write([]byte(`{"id":"ex-1"}`))
			return
		}
		w.Write([]byte(`{"state":"running"}`))
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := Frontier(Options{Scale: 2000, Remote: srv.URL, Context: ctx}, 4, 1, []string{"go"})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let a few polls happen
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("remote frontier search ignored its canceled context")
	}
}
