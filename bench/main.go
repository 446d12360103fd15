// Command bench is the service benchmark: it builds sweepd from the
// repository's source, runs a durable coordinator and one worker
// process, drives four workloads over HTTP, checks every output, and
// prints end-to-end metrics (or, traced, per-layer metrics). See
// README.md for the workloads, the metric glossary and how to compare
// two commits.
//
//	bash bench/run.sh                                  # all workloads
//	bash bench/run.sh -workload churn -seed 7 -seconds 15
//	bash bench/run.sh -trace spans.json                # traced run
//	bash bench/run.sh -compare 'base/*.json' 'change/*.json'
//
// -workload takes one workload or a comma-separated list, and -trace
// the file the spans are written to.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed = 1
	// runSeconds is the default run length per workload, BENCHMARK.json's
	// run_seconds.
	runSeconds = 20
)

// bench is one benchmark run's harness state.
type bench struct {
	ctx      context.Context
	root     string // repository root
	tmp      string // this run's scratch directory, removed at exit
	sweepd   string // the built service binary
	plan     plan
	seed     int64
	nproc    int
	hc       *http.Client
	services int
	live     map[*service]bool
	refs     map[string]string // in-process reference digests
}

// newBench builds sweepd into a scratch directory inside the
// repository's .bench_build.
func newBench(ctx context.Context, root string, pl plan, seed int64) (*bench, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		ctx: ctx, root: root, tmp: tmp, sweepd: filepath.Join(tmp, "sweepd"),
		plan: pl, seed: seed, nproc: runtime.NumCPU(),
		hc:   &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		live: map[*service]bool{}, refs: map[string]string{},
	}
	if err := buildSweepd(ctx, root, b.sweepd); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	return b, nil
}

// close stops every service still running and removes the scratch
// directory.
func (b *bench) close() {
	for s := range b.live {
		b.stopService(s)
	}
	os.RemoveAll(b.tmp)
}

// runWorkload measures one workload untraced and, when t is set, again
// traced with the in-process replay. The two passes share the run
// length, so a traced run takes as long as an untraced one.
func (b *bench) runWorkload(def workloadDef, t *tracer, length time.Duration) (workloadResult, error) {
	r := workloadResult{Name: def.name}
	clients := min(def.clients, b.nproc)
	p := &pass{clients: clients}
	if err := b.measureSetup(p, b.plan.setupLaunches); err != nil {
		return r, err
	}
	if t != nil {
		length /= 2
	}
	if err := def.run(b, nil, p, length); err != nil {
		return r, err
	}
	r.Attempted, r.Failed = p.attempted, p.failed
	if len(p.lat) == 0 {
		return r, nil // nothing to measure; Correct stays false
	}
	setE2E(def.name, p, &r)
	if p.elapsed == 0 {
		r.Loop = fmt.Sprintf("closed loop, %d client, %d reps on fresh processes", clients, p.attempted)
	} else {
		r.Loop = fmt.Sprintf("closed loop, %d clients for %.1f s; services: %d", clients, p.elapsed.Seconds(), len(p.workerRSS))
	}
	if t != nil {
		tp := &pass{clients: clients}
		if err := def.run(b, t, tp, length); err != nil {
			return r, err
		}
		r.Attempted += tp.attempted
		r.Failed += tp.failed
		if len(tp.lat) == 0 {
			return r, nil
		}
		if err := b.layers(t, def.name, tp, p, &r); err != nil {
			return r, err
		}
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// setE2E derives the end-to-end metrics of an untraced pass.
func setE2E(wl string, p *pass, r *workloadResult) {
	// Where defined; a percentile needs ten samples beyond it.
	set := func(name string, v float64, samples, need int) {
		if d, _ := lookupDef(name); d.definedOn(wl) && samples >= need {
			r.set(name, v, samples)
		}
	}
	lat := sortedCopy(p.lat)
	r.set("latency_p50_ms", percentile(lat, 50), len(lat))
	set("latency_p90_ms", percentile(lat, 90), len(lat), 100)
	set("latency_p99_ms", percentile(lat, 99), len(lat), 1000)
	set("jobs_per_s", float64(len(lat))/p.elapsed.Seconds(), len(lat), 1)
	set("sim_minst_per_s", median(p.simMinst), len(p.simMinst), 1)
	// The lowest peak: a service reads about one trace's capacity high
	// when that trace lands on memory the worker used before, which Go
	// zeroes in full, and which services do depends on timing.
	r.set("worker_rss_mb", slices.Min(p.workerRSS), len(p.workerRSS))
	r.set("coord_rss_mb", median(p.coordRSS), len(p.coordRSS))
	r.set("setup_s", median(p.setup), len(p.setup))
	r.set("failed_ratio", float64(p.failed)/float64(max(p.attempted, 1)), p.attempted)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// printResult writes one workload's metrics as a table.
func printResult(r workloadResult, traced bool) {
	fmt.Printf("\n== %s: %s; status polled every %s\n", r.Name, r.Loop, pollEvery)
	fmt.Printf("   jobs attempted %d, failed %d, outputs correct: %v\n", r.Attempted, r.Failed, r.Correct)
	for _, d := range metricDefs {
		m, ok := r.Metrics[d.name]
		if !ok || d.layer && !traced {
			continue
		}
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("(%d samples)", m.Samples)
		}
		fmt.Printf("   %-40s %14.4f %-8s %s\n", d.name, m.Value, m.Unit, samples)
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize keeps the metrics BENCHMARK.json lists: end-to-end ones
// untraced, per-layer ones traced. With several workloads the names
// carry a "workload/" prefix.
func summarize(results []workloadResult, traced bool) summary {
	s := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, d := range metricDefs {
			m, ok := r.Metrics[d.name]
			if !ok || !d.listed || d.layer != traced {
				continue
			}
			name := d.name
			if len(results) > 1 {
				name = r.Name + "/" + name
			}
			s.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return s
}

func main() {
	var (
		seed     = flag.Int64("seed", defaultSeed, "seed of churn's configurations: the same seed gives the same inputs")
		selected = flag.String("workload", strings.Join(workloadNames(), ","), "workload or comma-separated workloads: "+strings.Join(workloadNames(), ", "))
		seconds  = flag.Int("seconds", runSeconds, "run length per workload in seconds")
		out      = flag.String("out", "", "append this run's results to a JSON result file")
		spans    = flag.String("trace", "", "traced run with per-layer metrics, writing its spans to this file")
		cmp      = flag.Bool("compare", false, "compare two result-file globs: -compare A B")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A B (each a result file or glob)")
			os.Exit(2)
		}
		worse, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	var defs []workloadDef
	for _, name := range strings.Split(*selected, ",") {
		def, ok := lookupWorkload(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		defs = append(defs, def)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, defs, *seed, time.Duration(*seconds)*time.Second, *spans, *out)
	stop()
	os.Exit(code)
}

// run measures the workloads and prints the results; it returns the
// process exit code.
func run(ctx context.Context, defs []workloadDef, seed int64, length time.Duration, spans, out string) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := newBench(ctx, root, fullPlan, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer b.close()
	var t *tracer
	if spans != "" {
		t = &tracer{}
	}
	rec := runRecord{Seed: seed, Traced: t != nil, Seconds: int(length / time.Second), Machine: machine{
		CPU: cpuModel(), NProc: b.nproc, Go: runtime.Version(), Date: time.Now().UTC().Format(time.RFC3339)}}
	for _, def := range defs {
		r, err := b.runWorkload(def, t, length)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
			return 1
		}
		printResult(r, t != nil)
		rec.Workloads = append(rec.Workloads, r)
	}
	if t != nil {
		if err := t.write(spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if out != "" {
		if err := appendResult(out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	s := summarize(rec.Workloads, t != nil)
	line, _ := json.Marshal(s)
	fmt.Printf("\n%s\n", line)
	if !s.Correct {
		return 1
	}
	return 0
}
