package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"earlyrelease/internal/obs"
	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/search"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/sweep/durable"
	"earlyrelease/internal/sweep/store"
	"earlyrelease/internal/trace"
	"earlyrelease/internal/workloads"
)

// span is one timed call: an HTTP request of a job, or a call into a
// layer during the in-process replay. Spans of one job share Job.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, but its spans still time their calls.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

type openSpan struct {
	t          *tracer
	id, parent int
	name, job  string
	start      time.Time
}

func (t *tracer) open(parent int, name, job string) *openSpan {
	sp := &openSpan{t: t, parent: parent, name: name, job: job}
	if t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, span{})
		sp.id = len(t.spans)
		t.mu.Unlock()
	}
	sp.start = time.Now()
	return sp
}

// close ends the span and returns its duration.
func (sp *openSpan) close() time.Duration {
	end := time.Now()
	if sp.t != nil {
		sp.t.mu.Lock()
		sp.t.spans[sp.id-1] = span{ID: sp.id, Parent: sp.parent, Name: sp.name, Job: sp.job,
			Start: sp.start.UnixNano(), End: end.UnixNano()}
		sp.t.mu.Unlock()
	}
	return end.Sub(sp.start)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// timer accumulates the durations of one kind of call.
type timer struct {
	total time.Duration
	n     int
}

func (tm *timer) add(d time.Duration) { tm.total += d; tm.n++ }

func (tm *timer) meanUS() float64 { return float64(tm.total) / 1e3 / float64(max(tm.n, 1)) }
func (tm *timer) meanMS() float64 { return float64(tm.total) / 1e6 / float64(max(tm.n, 1)) }

// layers sets the per-layer metrics of a traced pass: sweepd's
// /metrics deltas, the client's own counts, and an in-process replay
// of the workload's points through each layer. untraced is the same
// workload's untraced pass, for the tracing overhead.
func (b *bench) layers(t *tracer, wl string, p, untraced *pass, r *workloadResult) error {
	kind := "sweep"
	if wl == "explore" {
		kind = "explore"
	}
	d := p.diff
	// setMean sets a mean in ms from a series' _sum/_count delta, where
	// it has samples (always for the metrics BENCHMARK.json lists).
	setMean := func(metric, series, labels string) {
		n := d[series+"_count"+labels]
		v := 0.0
		if n > 0 {
			v = d[series+"_sum"+labels] / n * 1000
		}
		if def, _ := lookupDef(metric); def.listed || n > 0 {
			r.set(metric, v, int(n))
		}
	}
	route := func(r string) string { return fmt.Sprintf("{route=%q}", r) }
	setMean("sweepd.queue_wait_ms_mean", "sweepd_shard_queue_wait_seconds", "")
	setMean("sweepd.shard_service_ms_mean", "sweepd_shard_service_seconds", "")
	setMean("sweepd.point_sim_ms_mean", "sweepd_point_sim_seconds", "")
	setMean("sweepd.http_submit_ms_mean", "sweepd_http_request_seconds", route("POST /"+kind))
	setMean("sweepd.http_get_ms_mean", "sweepd_http_request_seconds", route("GET /"+kind+"/{id}"))
	setMean("sweepd.http_lease_ms_mean", "sweepd_http_request_seconds", route("POST /work/lease"))
	setMean("sweepd.http_complete_ms_mean", "sweepd_http_request_seconds", route("POST /work/complete"))
	r.set("sweepd.leases", d["sweepd_leases_granted_total"], 0)
	r.set("sweepd.requeues", d["sweepd_shards_requeued_total"], 0)
	hits := 0.0
	if done := d["sweepd_points_done_total"]; done > 0 {
		hits = d["sweepd_points_cached_total"] / done
	}
	r.set("sweepd.cache_hit_ratio", hits, int(d["sweepd_points_done_total"]))
	if tax, _ := lookupDef("sweepd.orchestration_tax"); tax.definedOn(wl) && d["sweepd_point_sim_seconds_sum"] > 0 {
		wall := mean(p.lat) * float64(len(p.lat)) / 1000 // every rep's wall time, s
		r.set(tax.name, wall*float64(b.nproc)/d["sweepd_point_sim_seconds_sum"], len(p.lat))
	}

	r.set("bench.polls_per_job", float64(p.polls)/float64(max(len(p.lat), 1)), len(p.lat))
	r.set("bench.fetch_ms", mean(p.fetch), len(p.fetch))
	base := median(untraced.lat)
	r.set("bench.trace_overhead_pct", 100*(median(p.lat)-base)/base, len(p.lat))
	return b.replay(t, wl, p, r)
}

// timingEval is a search.Evaluator that times each round it forwards.
type timingEval struct {
	eng    *sweep.Engine
	t      *tracer
	parent int
	busy   time.Duration
	rounds [][]sweep.Point
	outs   []*sweep.Outcome
}

func (e *timingEval) RunPoints(points []sweep.Point, onProgress func(sweep.Progress)) (*sweep.Results, error) {
	sp := e.t.open(e.parent, "search.Evaluator.RunPoints", "")
	res, err := e.eng.RunPoints(points, onProgress)
	e.busy += sp.close()
	e.rounds = append(e.rounds, points)
	if res != nil {
		e.outs = append(e.outs, res.Outcomes...)
	}
	return res, err
}

type traceKey struct {
	workload string
	scale    int
}

// replayer feeds one workload's points through each layer's public
// functions in this process, timing every call as a span under root.
type replayer struct {
	b    *bench
	t    *tracer
	wl   string
	root int
	p    *pass
	r    *workloadResult
}

func (rp *replayer) span(name string) *openSpan { return rp.t.open(rp.root, name, rp.wl) }

// replay runs the layers in pipeline order. A result that differs from
// the one the service returned counts as a failed job.
func (b *bench) replay(t *tracer, wl string, p *pass, r *workloadResult) error {
	root := t.open(0, "replay", wl)
	defer root.close()
	rp := &replayer{b: b, t: t, wl: wl, root: root.id, p: p, r: r}
	in := p.in
	if in.spec != nil {
		var err error
		if in.outcomes, in.jobs, err = rp.search(in); err != nil {
			return err
		}
	}
	if len(in.outcomes) == 0 {
		return fmt.Errorf("%s: no results to replay", wl)
	}
	if err := rp.pipeline(in.outcomes); err != nil {
		return err
	}
	outs := in.outcomes[:min(512, len(in.outcomes))]
	blobs, err := rp.resultJSON(outs)
	if err != nil {
		return err
	}
	dir := filepath.Join(b.tmp, "replay-"+wl)
	defer os.RemoveAll(dir)
	if err := rp.store(filepath.Join(dir, "store"), outs, blobs); err != nil {
		return err
	}
	if err := rp.journal(filepath.Join(dir, "wal.log"), blobs); err != nil {
		return err
	}
	rp.plan(in.jobs)
	return rp.wire(outs)
}

// search runs the exploration again in process over the service's
// results and returns the points it evaluated, with the rounds as jobs.
func (rp *replayer) search(in replayInput) ([]*sweep.Outcome, [][]sweep.Point, error) {
	cache := sweep.NewCache()
	if _, _, err := cache.Import(bytes.NewReader(in.export), false); err != nil {
		return nil, nil, err
	}
	ev := &timingEval{eng: &sweep.Engine{Cache: cache, Parallel: rp.b.nproc}, t: rp.t, parent: rp.root}
	sp := rp.span("search.Explorer.Run")
	fr, err := (&search.Explorer{Eval: ev}).Run(*in.spec, nil)
	total := sp.close()
	if err != nil {
		return nil, nil, err
	}
	rp.r.set("search.rounds", float64(fr.Rounds), 0)
	rp.r.set("search.self_ms", float64(total-ev.busy)/1e6, fr.Rounds)
	// Equal to the service's frontier apart from the accounting of which
	// points were simulated and which were cached.
	var svc search.Frontier
	if err := json.Unmarshal(in.frontier, &svc); err != nil {
		return nil, nil, err
	}
	svc.Points, fr.Points = sweep.RunStats{}, sweep.RunStats{}
	a, _ := json.Marshal(&svc)
	c, _ := json.Marshal(fr)
	if !bytes.Equal(a, c) {
		rp.p.fail("explore: in-process frontier differs from the service's")
	}
	var outs []*sweep.Outcome
	seen := map[string]bool{}
	for _, o := range ev.outs {
		if o.Result != nil && !seen[o.Key] {
			seen[o.Key] = true
			outs = append(outs, o)
		}
	}
	return outs, ev.rounds, nil
}

// pipeline builds every trace the points need from an empty trace
// cache, pre-decodes each, then runs a seeded sample of trace groups as
// one lockstep batch each and point by point on a recycled scalar core.
func (rp *replayer) pipeline(outs []*sweep.Outcome) error {
	var keys []traceKey
	byKey := map[traceKey][]*sweep.Outcome{}
	for _, o := range outs {
		k := traceKey{o.Point.Workload, o.Point.Scale}
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], o)
	}
	workloads.ClearTraceCache()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	traces := map[traceKey]*trace.Trace{}
	var build timer
	insts := 0
	for _, k := range keys {
		w, err := workloads.ByName(k.workload)
		if err != nil {
			return err
		}
		sp := rp.span("workloads.Trace")
		tr, err := w.Trace(k.scale)
		build.add(sp.close())
		if err != nil {
			return err
		}
		traces[k] = tr
		insts += tr.Len()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	rp.r.set("workloads.trace_build_ms", float64(build.total)/1e6, build.n)
	rp.r.set("workloads.trace_retained_bytes_per_inst",
		float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(insts), build.n)

	var dec timer
	for _, k := range keys {
		sp := rp.span("pipeline.Decode")
		pipeline.Decode(traces[k])
		dec.add(sp.close())
	}
	rp.r.set("pipeline.decode_us", dec.meanUS(), dec.n)

	rng := rand.New(rand.NewSource(rp.b.seed))
	var batch, scalar timer
	var batchInsts, scalarInsts uint64
	var core *pipeline.Core
	for _, gi := range rng.Perm(len(keys))[:min(replayGroups, len(keys))] {
		k := keys[gi]
		group := byKey[k][:min(replayLanes, len(byKey[k]))]
		cfgs := make([]pipeline.Config, len(group))
		for i, o := range group {
			cfg, err := o.Point.Config()
			if err != nil {
				return err
			}
			cfgs[i] = cfg
		}
		sp := rp.span("pipeline.NewBatch+BatchCore.Run")
		results, errs := pipeline.NewBatch(traces[k]).Run(cfgs)
		batch.add(sp.close())
		for i, o := range group {
			if errs[i] != nil {
				return errs[i]
			}
			batchInsts += results[i].Committed
			rp.sameResult("batch", o, results[i])

			sp := rp.span("pipeline.New/Reset+Core.Run")
			var err error
			if core == nil {
				core, err = pipeline.New(cfgs[i], traces[k])
			} else {
				err = core.Reset(cfgs[i], traces[k])
			}
			var res *pipeline.Result
			if err == nil {
				res, err = core.Run()
			}
			scalar.add(sp.close())
			if err != nil {
				return err
			}
			scalarInsts += res.Committed
			rp.sameResult("scalar", o, res)
		}
	}
	batchNS := float64(batch.total) / float64(batchInsts)
	scalarNS := float64(scalar.total) / float64(scalarInsts)
	rp.r.set("pipeline.batch_ns_per_inst", batchNS, batch.n)
	rp.r.set("pipeline.scalar_ns_per_inst", scalarNS, scalar.n)
	rp.r.set("pipeline.batch_speedup", scalarNS/batchNS, batch.n)
	return nil
}

// sameResult fails the pass when an in-process result differs from the
// one the service returned for the point.
func (rp *replayer) sameResult(path string, o *sweep.Outcome, got *pipeline.Result) {
	a, _ := json.Marshal(o.Result)
	c, _ := json.Marshal(got)
	if !bytes.Equal(a, c) {
		rp.p.fail("%s: in-process %s result differs from the service's", o.Point, path)
	}
}

// resultJSON round-trips each Result through JSON, the form the cache,
// the wire and the job documents carry, and returns the encodings.
func (rp *replayer) resultJSON(outs []*sweep.Outcome) ([][]byte, error) {
	blobs := make([][]byte, len(outs))
	var enc, dec timer
	size := 0
	for i, o := range outs {
		sp := rp.span("json.Marshal(pipeline.Result)")
		blob, err := json.Marshal(o.Result)
		enc.add(sp.close())
		if err != nil {
			return nil, err
		}
		sp = rp.span("json.Unmarshal(pipeline.Result)")
		err = json.Unmarshal(blob, new(pipeline.Result))
		dec.add(sp.close())
		if err != nil {
			return nil, err
		}
		blobs[i] = blob
		size += len(blob)
	}
	rp.r.set("pipeline.result_encode_us", enc.meanUS(), enc.n)
	rp.r.set("pipeline.result_decode_us", dec.meanUS(), dec.n)
	rp.r.set("pipeline.result_bytes", float64(size)/float64(len(outs)), len(outs))
	return blobs, nil
}

// store puts each planned shard's results and then syncs, as a worker
// completion lands in the coordinator's cache, and reads them back.
func (rp *replayer) store(dir string, outs []*sweep.Outcome, blobs [][]byte) error {
	st, err := store.Open(dir, store.Options{CompactInterval: -1})
	if err != nil {
		return err
	}
	defer st.Close()
	pts := make([]sweep.Point, len(outs))
	for i, o := range outs {
		pts[i] = o.Point
	}
	var put, sync, get timer
	for _, shard := range (sweep.ShardPlanner{}).Plan(pts) {
		for _, i := range shard {
			sp := rp.span("store.Put")
			err := st.Put(outs[i].Key, blobs[i])
			put.add(sp.close())
			if err != nil {
				return err
			}
		}
		sp := rp.span("store.Sync")
		err := st.Sync()
		sync.add(sp.close())
		if err != nil {
			return err
		}
	}
	for i, o := range outs {
		sp := rp.span("store.Get")
		v, ok, err := st.Get(o.Key)
		get.add(sp.close())
		if err != nil || !ok || !bytes.Equal(v, blobs[i]) {
			return fmt.Errorf("store read-back of %s: ok %v, %v", o.Point, ok, err)
		}
	}
	rp.r.set("store.put_us", put.meanUS(), put.n)
	rp.r.set("store.sync_ms", sync.meanMS(), sync.n)
	rp.r.set("store.get_us", get.meanUS(), get.n)
	return st.Close()
}

// journal appends records the size of a completion's to a WAL, one in
// eleven synced.
func (rp *replayer) journal(path string, blobs [][]byte) error {
	wal, _, err := durable.OpenWAL(path)
	if err != nil {
		return err
	}
	defer wal.Close()
	var app, appSync timer
	for i := 0; i < 220; i++ {
		synced := i%11 == 10
		sp := rp.span("durable.WAL.Append")
		err := wal.Append(1, blobs[i%len(blobs)], synced)
		if d := sp.close(); synced {
			appSync.add(d)
		} else {
			app.add(d)
		}
		if err != nil {
			return err
		}
	}
	rp.r.set("durable.append_us", app.meanUS(), app.n)
	rp.r.set("durable.append_fsync_ms", appSync.meanMS(), appSync.n)
	return wal.Close()
}

// plan shards every job's points, ten times each.
func (rp *replayer) plan(jobs [][]sweep.Point) {
	var plan timer
	for _, job := range jobs[:min(64, len(jobs))] {
		for i := 0; i < 10; i++ {
			sp := rp.span("sweep.ShardPlanner.Plan")
			(sweep.ShardPlanner{MinShards: 1}).Plan(job)
			plan.add(sp.close())
		}
	}
	rp.r.set("sweep.plan_us", plan.meanUS(), plan.n)
}

// wire encodes and decodes a 64-point completion frame.
func (rp *replayer) wire(outs []*sweep.Outcome) error {
	req := &sweep.CompleteRequest{LeaseID: "lease-1", WorkerID: "w-1"}
	for i := 0; i < 64; i++ {
		o := outs[i%len(outs)]
		req.Outcomes = append(req.Outcomes, sweep.WireOutcome{Key: o.Key, Result: o.Result})
		req.PointNS = append(req.PointNS, int64(1e6+i))
	}
	now := time.Now().UnixNano()
	req.Spans = []obs.Span{{Name: "w:simulate", Ref: "sh-1", StartNS: now, EndNS: now + 1e9}}
	var enc, dec timer
	frameLen := 0
	for i := 0; i < 20; i++ {
		sp := rp.span("sweep.EncodeMessage")
		frame, err := sweep.EncodeMessage(req)
		enc.add(sp.close())
		if err != nil {
			return err
		}
		sp = rp.span("sweep.DecodeMessage")
		_, err = sweep.DecodeMessage(frame)
		dec.add(sp.close())
		if err != nil {
			return err
		}
		frameLen = len(frame)
	}
	rp.r.set("sweep.wire_encode_us", enc.meanUS(), enc.n)
	rp.r.set("sweep.wire_decode_us", dec.meanUS(), dec.n)
	rp.r.set("sweep.wire_bytes_per_point", float64(frameLen)/64, 1)
	return nil
}
