package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"earlyrelease/internal/search"
	"earlyrelease/internal/sweep"
)

// exploreSpec is the small job the route tests run: a 24-candidate
// space over one workload at tiny scale.
func exploreSpec(strategy string) search.Spec {
	return search.Spec{
		Strategy:  strategy,
		Budget:    8,
		Seed:      11,
		Scale:     6000,
		Workloads: []string{"tomcatv"},
		Space: &search.Space{
			Policies: []string{"conv", "extended"},
			IntRegs:  []int{40, 48, 64},
			Axes: []search.AxisRange{
				{Name: "ros", Values: []int{64, 0}},
				{Name: "issue", Values: []int{4, 8}},
			},
		},
	}
}

func postExplore(t *testing.T, ts *httptest.Server, spec search.Spec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /explore: status %d", resp.StatusCode)
	}
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("empty exploration id")
	}
	return out.ID
}

func pollExploreDone(t *testing.T, ts *httptest.Server, id string) *exploreJob {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/explore/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job exploreJob
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.State == "done" {
			return &job
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("exploration did not finish in time")
	return nil
}

// TestExploreSubmitPoll: a spec posted to /explore runs on the
// coordinator's federation and yields the byte-identical frontier of a
// local Explorer run over a fresh cache — exploration is transparent
// to where the cycles are spent.
func TestExploreSubmitPoll(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := exploreSpec("hillclimb")
	job := pollExploreDone(t, ts, postExplore(t, ts, spec))
	if job.Err != "" {
		t.Fatalf("exploration failed: %s", job.Err)
	}
	if job.Frontier == nil || len(job.Frontier.Frontier) == 0 {
		t.Fatalf("no frontier: %+v", job)
	}
	if !job.Frontier.NonDominated {
		t.Fatal("frontier not non-dominated")
	}
	if got := job.Frontier.Evaluations + job.Frontier.ScreenEvaluations; got > spec.Budget {
		t.Errorf("%d evaluations exceed budget %d", got, spec.Budget)
	}

	local, err := (&search.Explorer{Eval: &sweep.Engine{Cache: sweep.NewCache()}}).Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	remoteJSON, _ := json.MarshalIndent(job.Frontier, "", "  ")
	localJSON, _ := json.MarshalIndent(local, "", "  ")
	if !bytes.Equal(remoteJSON, localJSON) {
		t.Errorf("federated frontier differs from local run:\n%s\n---\n%s", remoteJSON, localJSON)
	}
}

// TestExploreClientRoundTrip drives the same path through
// search.RunRemote (what cmd/explore -remote uses) and checks progress
// forwarding plus the /explores listing.
func TestExploreClientRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := exploreSpec("random")
	var sawProgress bool
	fr, err := search.RunRemote(context.Background(), sweep.NewClient(ts.URL), spec,
		func(p search.Progress) { sawProgress = true })
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Frontier) == 0 || !fr.NonDominated {
		t.Fatalf("bad frontier: %+v", fr)
	}
	if !sawProgress {
		t.Error("no progress forwarded")
	}

	resp, err := http.Get(ts.URL + "/explores")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		Strategy string `json:"strategy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].State != "done" || items[0].Strategy != "random" {
		t.Fatalf("explores listing: %+v", items)
	}
}

// TestExploreStream reads the NDJSON progress stream to completion.
func TestExploreStream(t *testing.T) {
	ts, _ := newTestServer(t)
	id := postExplore(t, ts, exploreSpec("hillclimb"))
	resp, err := http.Get(ts.URL + "/explore/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var last struct {
		State    string          `json:"state"`
		Progress search.Progress `json:"progress"`
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("empty stream")
	}
	if last.State != "done" {
		t.Errorf("final stream line: %+v", last)
	}
	if last.Progress.Evaluations == 0 && last.Progress.ScreenEvaluations == 0 {
		t.Errorf("final progress shows no evaluations: %+v", last.Progress)
	}
}

// TestExploreBadSpec: malformed and invalid specs are synchronous 400s.
func TestExploreBadSpec(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []string{
		`{"strategy":"annealing"}`,
		`{"space":{"policies":["bogus"]}}`,
		`{"space":{"axes":[{"name":"nope","values":[1]}]}}`,
		`{"bogus_field":1}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/explore", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Unknown exploration ids are 404s on both routes.
	for _, path := range []string{"/explore/ex-999", "/explore/ex-999/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
