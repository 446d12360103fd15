package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// tinyPlan runs every workload at a small scale.
var tinyPlan = plan{
	coldScale: 1000, warmScale: 1000, churnScale: 1000, exploreScale: 4000,
	exploreBudget: 12, warmRound: 20, churnRound: 16, setupLaunches: 1,
}

// TestSmoke runs every workload, untraced and traced, through the same
// code as the benchmark, so the harness cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sweepd and launches service processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(context.Background(), root, tinyPlan, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	tr := &tracer{}
	for _, def := range workloadDefs {
		r, err := b.runWorkload(def, tr, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d jobs failed", def.name, r.Correct, r.Failed, r.Attempted)
		}
		for _, d := range metricDefs {
			m, ok := r.Metrics[d.name]
			if d.listed && !ok {
				t.Errorf("%s: metric %s missing", def.name, d.name)
			}
			if ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
				t.Errorf("%s: metric %s = %v", def.name, d.name, m.Value)
			}
		}
	}
	if len(tr.spans) == 0 {
		t.Error("traced run recorded no spans")
	}
	if len(b.live) != 0 {
		t.Errorf("%d services still running", len(b.live))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workload and
// metric tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(got.Paths, []string{"bench"}) {
		t.Errorf("command %q, paths %q", got.Command, got.Paths)
	}
	if got.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, want the default run length %d", got.RunSeconds, runSeconds)
	}
	if len(got.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, want %d", len(got.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if got.Workloads[i].Name != w.name || got.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, got.Workloads[i], w.name, w.why)
		}
	}
	var e2e, layer []metric
	for _, d := range metricDefs {
		if !d.listed {
			continue
		}
		if d.layer {
			layer = append(layer, metric{Name: d.name, Unit: d.unit, Better: d.better})
		} else {
			bound := d.bound
			e2e = append(e2e, metric{Name: d.name, Unit: d.unit, Better: d.better, Bound: &bound})
		}
	}
	if !reflect.DeepEqual(got.EndToEnd, e2e) {
		t.Errorf("end_to_end differs from the metric table")
	}
	if !reflect.DeepEqual(got.PerLayer, layer) {
		t.Errorf("per_layer differs from the metric table")
	}
}

// TestQuartiles matches Python's statistics.quantiles(range(1, 11), n=4).
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
}

func TestJudge(t *testing.T) {
	lat, _ := lookupDef("latency_p50_ms")
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{105, 104, 106, 105, 105}, "ok"},
		{[]float64{130, 131, 129, 130, 130}, "worse"},
		{[]float64{80, 81, 79, 80, 80}, "ok"},
		{[]float64{60, 200, 100, 140, 90}, "unresolved"},
	} {
		if v, _ := judge(lat, steady, c.b); v != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.b, v, c.want)
		}
	}
	failed, _ := lookupDef("failed_ratio")
	if v, _ := judge(failed, []float64{0, 0}, []float64{0, 0.01}); v != "worse" {
		t.Errorf("failed_ratio median 0 vs 0.005: %s", v)
	}
}
