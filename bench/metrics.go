package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// metricDef is one row of the metric glossary (README.md, which also
// maps each layer metric to the end-to-end metric it should move). The
// table below is what the output, -compare and the BENCHMARK.json
// consistency test read.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the relative worsening an end-to-end metric may show
	// before -compare calls it worse (failed_ratio: absolute).
	bound float64
	layer bool // per-layer: reported by the traced run only
	// listed marks the metrics BENCHMARK.json names: those defined on
	// every workload.
	listed bool
	only   []string // workloads the metric is defined on; nil = all
}

var (
	repWorkloads   = []string{"cold-grid", "explore"}
	timedWorkloads = []string{"warm-grid", "churn"}
	simWorkloads   = []string{"cold-grid", "explore", "churn"}
)

var metricDefs = []metricDef{
	// End to end, measured untraced.
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.15},
	{name: "latency_p90_ms", unit: "ms", better: "lower", bound: 0.20, only: timedWorkloads},
	{name: "latency_p99_ms", unit: "ms", better: "lower", bound: 0.20, only: []string{"warm-grid"}},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.15, only: timedWorkloads},
	{name: "sim_minst_per_s", unit: "Minst/s", better: "higher", bound: 0.10, only: simWorkloads},
	{name: "worker_rss_mb", unit: "MB", better: "lower", bound: 0.15, listed: true},
	{name: "coord_rss_mb", unit: "MB", better: "lower", bound: 0.15, listed: true},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, listed: true},
	{name: "failed_ratio", unit: "ratio", better: "lower", bound: 0},

	// Per layer, from the traced run.
	{name: "workloads.trace_build_ms", unit: "ms", better: "lower", layer: true, listed: true},
	{name: "workloads.trace_retained_bytes_per_inst", unit: "B/inst", better: "lower", layer: true, listed: true},
	{name: "pipeline.decode_us", unit: "us", better: "lower", layer: true, listed: true},
	{name: "pipeline.scalar_ns_per_inst", unit: "ns/inst", better: "lower", layer: true, listed: true},
	{name: "pipeline.batch_ns_per_inst", unit: "ns/inst", better: "lower", layer: true, listed: true},
	{name: "pipeline.batch_speedup", unit: "x", better: "higher", layer: true, listed: true},
	{name: "pipeline.result_encode_us", unit: "us", better: "lower", layer: true, listed: true},
	{name: "pipeline.result_decode_us", unit: "us", better: "lower", layer: true, listed: true},
	{name: "pipeline.result_bytes", unit: "B", better: "lower", layer: true, listed: true},
	{name: "store.put_us", unit: "us", better: "lower", layer: true, listed: true},
	{name: "store.sync_ms", unit: "ms", better: "lower", layer: true, listed: true},
	{name: "store.get_us", unit: "us", better: "lower", layer: true, listed: true},
	{name: "durable.append_us", unit: "us", better: "lower", layer: true, listed: true},
	{name: "durable.append_fsync_ms", unit: "ms", better: "lower", layer: true, listed: true},
	{name: "sweep.plan_us", unit: "us", better: "lower", layer: true, listed: true},
	{name: "sweep.wire_encode_us", unit: "us", better: "lower", layer: true, listed: true},
	{name: "sweep.wire_decode_us", unit: "us", better: "lower", layer: true, listed: true},
	{name: "sweep.wire_bytes_per_point", unit: "B", better: "lower", layer: true, listed: true},
	{name: "sweepd.queue_wait_ms_mean", unit: "ms", better: "lower", layer: true, only: simWorkloads},
	{name: "sweepd.shard_service_ms_mean", unit: "ms", better: "lower", layer: true, only: simWorkloads},
	{name: "sweepd.point_sim_ms_mean", unit: "ms", better: "lower", layer: true, only: simWorkloads},
	{name: "sweepd.leases", unit: "count", better: "lower", layer: true, listed: true},
	{name: "sweepd.requeues", unit: "count", better: "lower", layer: true, listed: true},
	{name: "sweepd.cache_hit_ratio", unit: "ratio", better: "higher", layer: true, listed: true},
	{name: "sweepd.http_submit_ms_mean", unit: "ms", better: "lower", layer: true, listed: true},
	{name: "sweepd.http_get_ms_mean", unit: "ms", better: "lower", layer: true, listed: true},
	{name: "sweepd.http_lease_ms_mean", unit: "ms", better: "lower", layer: true, listed: true},
	{name: "sweepd.http_complete_ms_mean", unit: "ms", better: "lower", layer: true, only: simWorkloads},
	{name: "sweepd.orchestration_tax", unit: "x", better: "lower", layer: true, only: repWorkloads},
	{name: "search.rounds", unit: "count", better: "lower", layer: true, only: []string{"explore"}},
	{name: "search.self_ms", unit: "ms", better: "lower", layer: true, only: []string{"explore"}},
	{name: "bench.polls_per_job", unit: "count", better: "lower", layer: true, listed: true},
	{name: "bench.fetch_ms", unit: "ms", better: "lower", layer: true, listed: true},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", layer: true, listed: true},
}

// definedOn reports whether the metric applies to the workload.
func (d metricDef) definedOn(workload string) bool {
	if d.only == nil {
		return true
	}
	for _, w := range d.only {
		if w == workload {
			return true
		}
	}
	return false
}

func lookupDef(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricValue is one measured number. Samples counts the observations
// behind a percentile or mean (0 = a single measurement).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// workloadResult is one workload's outcome in one run.
type workloadResult struct {
	Name      string                 `json:"name"`
	Loop      string                 `json:"loop"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// set records a metric by its glossary name and unit.
func (w *workloadResult) set(name string, v float64, samples int) {
	d, ok := lookupDef(name)
	if !ok {
		panic("bench: metric " + name + " is not in the glossary")
	}
	if w.Metrics == nil {
		w.Metrics = map[string]metricValue{}
	}
	w.Metrics[name] = metricValue{Value: v, Unit: d.unit, Samples: samples}
}

// machine identifies where a run was measured.
type machine struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
	Date  string `json:"date"`
}

// runRecord is one invocation's results; a result file holds many.
type runRecord struct {
	Seed      int64            `json:"seed"`
	Traced    bool             `json:"traced"`
	Seconds   int              `json:"seconds,omitempty"`
	Machine   machine          `json:"machine"`
	Workloads []workloadResult `json:"workloads"`
}

type resultFile struct {
	Runs []runRecord `json:"runs"`
}

// appendResult adds rec to the result file at path, creating it.
func appendResult(path string, rec runRecord) error {
	var f resultFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	f.Runs = append(f.Runs, rec)
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// percentile interpolates linearly between closest ranks of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), so spreads here match the ones a Python script computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// loadSide reads every untraced run from the result files a glob
// pattern names and groups the end-to-end values by (workload, metric).
func loadSide(pattern string) (map[[2]string][]float64, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result file matches %s", pattern)
	}
	vals := map[[2]string][]float64{}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, run := range f.Runs {
			if run.Traced {
				continue
			}
			for _, w := range run.Workloads {
				for name, m := range w.Metrics {
					k := [2]string{w.Name, name}
					vals[k] = append(vals[k], m.Value)
				}
			}
		}
	}
	return vals, nil
}

// compare prints one row per (workload, end-to-end metric) present on
// both sides and reports whether any row is worse.
func compare(out io.Writer, a, b string) (worse bool, err error) {
	av, err := loadSide(a)
	if err != nil {
		return false, err
	}
	bv, err := loadSide(b)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tchange\tbound\tspread A\tspread B\tverdict\t")
	for _, wl := range workloadNames() {
		for _, d := range metricDefs {
			k := [2]string{wl, d.name}
			xs, ys := av[k], bv[k]
			if d.layer || len(xs) == 0 || len(ys) == 0 {
				continue
			}
			ma, mb := median(xs), median(ys)
			verdict, change := judge(d, xs, ys)
			if verdict == "worse" {
				worse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\t\n",
				wl, d.name, ma, mb, 100*change, 100*d.bound, 100*spread(xs), 100*spread(ys), verdict)
		}
	}
	return worse, tw.Flush()
}

// judge applies the regression rule to one metric: B is worse when its
// median is worse than A's by more than the bound, and unresolved when
// either side's spread exceeds the bound (unless every B run beats
// every A run). change is B's worsening relative to A (negative =
// better); failed_ratio compares absolutely.
func judge(d metricDef, xs, ys []float64) (verdict string, change float64) {
	ma, mb := median(xs), median(ys)
	sign := 1.0
	if d.better == "higher" {
		sign = -1
	}
	if ma != 0 {
		change = sign * (mb - ma) / math.Abs(ma)
	} else {
		change = sign * (mb - ma)
	}
	if d.bound == 0 {
		if change > 0 {
			return "worse", change
		}
		return "ok", change
	}
	if spread(xs) > d.bound || spread(ys) > d.bound {
		allBetter := true
		for _, x := range xs {
			for _, y := range ys {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", change
		}
	}
	if change > d.bound {
		return "worse", change
	}
	return "ok", change
}
