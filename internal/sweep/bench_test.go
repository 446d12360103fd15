package sweep

import (
	"testing"

	"earlyrelease/internal/workloads"
)

// Sweep-level throughput benchmarks: two representative 64-config
// shared-trace explorer batches, each run through the scalar engine and
// the batch path. BENCH_sweep.json commits the measured
// points/s and the batch/scalar ratios; cmd/benchguard -mode sweep
// gates CI on the ratios (machine-independent — both sides of each
// pair run on the same host in the same process).
//
// The primary pair (BenchmarkSweepScalar/BenchmarkSweepBatch) is the
// 200-cycle memory-latency column of the machine-axis space on the
// memory-bound pointer-chase workload: every other axis and policy
// varies, memory latency is pinned to its highest sensitivity value.
// This is where sweep wall-clock concentrates — scalar points there
// run 2–4× longer than canonical ones because the serial chain drains
// the window and the scalar loop steps hundreds of thousands of empty
// stall cycles — and it is exactly the batch shape the explorer emits
// when it refines the cheap-memory side of the Pareto frontier. The
// idle-skipping batch path collapses those stall spans, so this pair
// carries the headline ratio and the ≥5× gate.
//
// The secondary pair (…ScalarMix/…BatchMix) is the same axis sweep
// around the Table 2 baseline on tomcatv, whose overlapping misses keep
// the machine busy almost every cycle. It documents the honest lower
// bound of the win — with no idle spans to skip, only the shared
// pre-decode and core recycling remain — and gates only against
// regression below scalar.

const benchScale = 20_000

// memShelf composes one 32-config machine-axis sweep at the given
// memory latency: policy and register-file corners, the ablations, and
// per-axis sensitivity values, all distinct points.
func memShelf(workload string, memLat int) []Point {
	base := Point{Workload: workload, Policy: "extended",
		IntRegs: 48, FPRegs: 48, Scale: benchScale, MemLat: memLat}
	var pts []Point
	add := func(mut func(*Point)) {
		p := base
		if mut != nil {
			mut(&p)
		}
		pts = append(pts, p)
	}
	// Policy × register-file corners.
	for _, pol := range []string{"conv", "basic", "extended"} {
		pol := pol
		for _, regs := range []int{40, 48, 56, 64} {
			regs := regs
			add(func(p *Point) { p.Policy = pol; p.IntRegs, p.FPRegs = regs, regs })
		}
	}
	// Ablations.
	add(func(p *Point) { p.Eager = true })
	add(func(p *Point) { p.NoReuse = true })
	// One axis at a time.
	add(func(p *Point) { p.ROSSize = 32 })
	add(func(p *Point) { p.ROSSize = 256 })
	add(func(p *Point) { p.LSQSize = 16 })
	add(func(p *Point) { p.LSQSize = 32 })
	add(func(p *Point) { p.FetchWidth = 2 })
	add(func(p *Point) { p.IssueWidth = 2 })
	add(func(p *Point) { p.IssueWidth = 16 })
	add(func(p *Point) { p.CommitWidth = 2 })
	add(func(p *Point) { p.FrontEnd = 8 })
	add(func(p *Point) { p.BPredBits = 10 })
	add(func(p *Point) { p.L1DKB = 16 })
	add(func(p *Point) { p.L1DKB = 64 })
	add(func(p *Point) { p.L2KB = 256 })
	add(func(p *Point) { p.L2KB = 2048 })
	// Combined cheap-machine corners from the frontier's neighborhood.
	add(func(p *Point) { p.ROSSize, p.LSQSize, p.IssueWidth, p.L1DKB = 32, 16, 4, 16 })
	add(func(p *Point) { p.ROSSize, p.L1DKB, p.L2KB = 64, 16, 512 })
	add(func(p *Point) { p.Policy, p.IntRegs, p.FPRegs, p.ROSSize = "conv", 40, 40, 32 })
	add(func(p *Point) { p.Policy, p.IntRegs, p.FPRegs, p.LSQSize = "basic", 40, 40, 16 })
	return pts
}

// ExplorerBatch is the primary benchmark batch: 64 distinct machine
// configs × listwalk@20k, all on the 200-cycle memory-latency column.
// The first 32 are memShelf's axis sweep; the rest widen the
// register-file ladder and the combined cheap-machine corners.
// Exported so the CI smoke job runs the exact batch the gate measures.
func ExplorerBatch() []Point {
	pts := memShelf("listwalk", 200)
	base := Point{Workload: "listwalk", Policy: "extended",
		IntRegs: 48, FPRegs: 48, Scale: benchScale, MemLat: 200}
	add := func(mut func(*Point)) {
		p := base
		mut(&p)
		pts = append(pts, p)
	}
	// Finer register-file ladder (memShelf covers 40/48/56/64).
	for _, pol := range []string{"conv", "basic", "extended"} {
		pol := pol
		for _, regs := range []int{44, 52, 60} {
			regs := regs
			add(func(p *Point) { p.Policy = pol; p.IntRegs, p.FPRegs = regs, regs })
		}
	}
	// Second sensitivity value per window/width/front-end axis.
	add(func(p *Point) { p.ROSSize = 64 })
	add(func(p *Point) { p.FetchWidth = 4 })
	add(func(p *Point) { p.IssueWidth = 4 })
	add(func(p *Point) { p.CommitWidth = 4 })
	add(func(p *Point) { p.FrontEnd = 1 })
	add(func(p *Point) { p.FrontEnd = 4 })
	add(func(p *Point) { p.BPredBits = 14 })
	add(func(p *Point) { p.L1DKB = 8 })
	add(func(p *Point) { p.L2KB = 512 })
	add(func(p *Point) { p.LSQSize = 128 })
	// More combined cheap-machine corners.
	add(func(p *Point) { p.ROSSize, p.LSQSize, p.L1DKB = 32, 16, 8 })
	add(func(p *Point) { p.ROSSize, p.IssueWidth, p.L2KB = 64, 4, 256 })
	add(func(p *Point) { p.Policy, p.IntRegs, p.FPRegs, p.L1DKB = "conv", 44, 44, 16 })
	add(func(p *Point) { p.Policy, p.IntRegs, p.FPRegs, p.ROSSize = "basic", 44, 44, 64 })
	add(func(p *Point) { p.Eager = true; p.ROSSize = 64 })
	add(func(p *Point) { p.NoReuse = true; p.ROSSize = 64 })
	add(func(p *Point) { p.Policy = "conv"; p.Eager = true })
	add(func(p *Point) { p.Policy, p.NoReuse, p.LSQSize = "conv", true, 32 })
	add(func(p *Point) { p.Policy, p.IntRegs, p.FPRegs, p.FetchWidth = "basic", 56, 56, 2 })
	add(func(p *Point) { p.Policy, p.IntRegs, p.FPRegs, p.CommitWidth = "extended", 56, 56, 2 })
	add(func(p *Point) { p.Policy, p.IntRegs, p.FPRegs, p.BPredBits = "extended", 40, 40, 10 })
	add(func(p *Point) { p.Policy, p.IntRegs, p.FPRegs, p.L2KB = "conv", 64, 64, 2048 })
	add(func(p *Point) { p.Policy, p.IntRegs, p.FPRegs, p.ROSSize = "extended", 64, 64, 256 })
	return pts
}

// MixBatch is the secondary batch: the same 64-config axis sweep on
// tomcatv, half at the Table 2 baseline latency, half at the 100-cycle
// shelf. Overlapping misses keep its pipelines busy, so it bounds the
// win from below.
func MixBatch() []Point {
	return append(memShelf("tomcatv", 0), memShelf("tomcatv", 100)...)
}

func benchSweep(b *testing.B, pts []Point, batch int) {
	if len(pts) != 64 {
		b.Fatalf("benchmark batch has %d points, want 64", len(pts))
	}
	seen := map[string]bool{}
	for _, pt := range pts {
		if seen[pt.String()] {
			b.Fatalf("duplicate benchmark point %s", pt)
		}
		seen[pt.String()] = true
		w, err := workloads.ByName(pt.Workload)
		if err != nil {
			b.Fatal(err)
		}
		w.MustTrace(pt.Scale) // build traces outside the timer
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := &Engine{Parallel: 1, Batch: batch, Cache: NewCache()}
		res, err := eng.RunPoints(pts, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

func BenchmarkSweepScalar(b *testing.B) { benchSweep(b, ExplorerBatch(), 1) }

func BenchmarkSweepBatch(b *testing.B) { benchSweep(b, ExplorerBatch(), 64) }

func BenchmarkSweepScalarMix(b *testing.B) { benchSweep(b, MixBatch(), 1) }

func BenchmarkSweepBatchMix(b *testing.B) { benchSweep(b, MixBatch(), 64) }

// BenchmarkWorkerShards is a federated worker's allocation profile on
// a cold sweep: the acceptance grid, split by ShardPlanner as the
// coordinator splits it, runs shard by shard through one two-worker
// Engine with no shared cache, as sweepd -role worker runs leases.
// Traces are built outside the timer, so B/op counts what the engine
// allocates for lanes, results and per-shard caches.
func BenchmarkWorkerShards(b *testing.B) {
	pts := acceptanceGrid(5_000).Expand()
	shards := ShardPlanner{}.Plan(pts)
	for _, pt := range pts {
		w, err := workloads.ByName(pt.Workload)
		if err != nil {
			b.Fatal(err)
		}
		w.MustTrace(pt.Scale)
	}
	eng := &Engine{Parallel: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, shard := range shards {
			sp := make([]Point, len(shard))
			for j, idx := range shard {
				sp[j] = pts[idx]
			}
			res, err := eng.RunPoints(sp, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := res.Err(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGridKeys is what sweepd pays to rebuild a finished sweep's
// outcome list on read: expand the 192-point acceptance grid and hash
// every point's cache key, one Key call per point or one Keys call.
func BenchmarkGridKeys(b *testing.B) {
	g := acceptanceGrid(benchScale)
	b.Run("Key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pt := range g.Expand() {
				if _, err := pt.Key(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Keys", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, errs := Keys(g.Expand()); errs[0] != nil {
				b.Fatal(errs[0])
			}
		}
	})
}
