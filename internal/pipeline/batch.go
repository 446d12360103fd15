package pipeline

import (
	"fmt"
	"slices"

	"earlyrelease/internal/trace"
)

// This file implements the batched execution path: one recycled Core
// runs a trace group's configurations back to back, each through an
// event-aware fast loop. The fast loop calls exactly the stage
// functions Run calls, in the same order; its only addition is that a
// provably idle cycle — no commit, no writeback, no issue possible, no
// rename, no fetch — is fast-forwarded to the next scheduled event
// instead of being stepped one cycle at a time. Every quantity the
// simulator produces (cycle counts, stall breakdowns, cache and
// predictor state, register lifetimes) changes only at stage events, so
// skipping event-free cycles is exact: the differential suite pins the
// full Result bit-identical to Core.Run. Core.Run itself is left
// untouched as the cycle-by-cycle reference implementation the batch
// path is checked against.

// RunFast simulates to completion like Run, fast-forwarding idle
// cycles, and returns the same result or error Run would.
func (c *Core) RunFast() (*Result, error) {
	maxCycles := c.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 64*int64(c.tr.Len()) + 100_000
	}
	for !c.halted {
		if c.cycle >= maxCycles {
			return nil, fmt.Errorf("pipeline: cycle limit %d exceeded (%d/%d committed)",
				maxCycles, c.committed, c.tr.Len())
		}
		// Snapshot every progress signal the stages can move without
		// producing a wheel event. Idle detection compares against these
		// after the cycle runs.
		committed0 := c.committed
		exceptions0 := c.exceptions
		seq0 := c.nextSeq
		cursor0, wrong0 := c.cursor, c.wrongUops
		stall0, line0 := c.fetchStallTil, c.lastFetchLine
		halt0, wp0 := c.haltFetched, c.wrongPath

		c.commitStage()
		if c.halted {
			break
		}
		wbBusy := c.writebackStage()
		issued, stable := c.issueStage()
		c.renameStage()
		c.fetchStage()
		c.cycle++

		if !wbBusy && issued == 0 && stable &&
			c.committed == committed0 && c.exceptions == exceptions0 &&
			c.nextSeq == seq0 && c.cursor == cursor0 && c.wrongUops == wrong0 &&
			c.fetchStallTil == stall0 && c.lastFetchLine == line0 &&
			c.haltFetched == halt0 && c.wrongPath == wp0 {
			c.skipIdle(maxCycles)
		}
	}
	if c.checker != nil {
		if err := c.checker.Err(); err != nil {
			return nil, err
		}
	}
	return c.result(), nil
}

// skipIdle fast-forwards an idle machine to its next scheduled event:
// the earliest nonempty completion-wheel bucket, the end of the fetch
// stall window when fetch could otherwise proceed, or the cycle the
// fetch-queue head leaves the front end when that is what blocks
// rename. The skipped cycles are charged to the rename stall counter
// recorded for the idle cycle — the blocking condition cannot change
// while no event fires, so the scalar loop would have incremented the
// same counter once per skipped cycle.
func (c *Core) skipIdle(maxCycles int64) {
	if c.renameBlock == blockNone {
		// Rename dispatched or never blocked; not an idle pattern we
		// can account for. (Unreachable when the idle signature holds —
		// dispatch would have moved nextSeq — but stay conservative.)
		return
	}
	next := farFuture
	if c.wheelCount > 0 {
		for k := int64(0); k <= c.wheelMask; k++ {
			if len(c.wheel[(c.cycle+k)&c.wheelMask]) > 0 {
				next = c.cycle + k
				break
			}
		}
	}
	// If fetch could make progress the moment its stall window closes,
	// the window's end bounds the skip.
	if !c.haltFetched && c.fqLen < c.cfg.FetchQueue &&
		(c.wrongPath || c.cursor.Index() < c.tr.Len()) {
		if c.fetchStallTil <= c.cycle {
			// Fetch can act right now; the machine was not actually idle.
			return
		}
		if c.fetchStallTil < next {
			next = c.fetchStallTil
		}
	}
	if c.renameBlock == blockFetchNotReady && c.renameBound < next {
		next = c.renameBound
	}
	if next > maxCycles {
		// No event before the cycle limit: burn down to it so the
		// runaway error and its stall accounting match the scalar loop.
		next = maxCycles
	}
	delta := next - c.cycle
	if delta <= 0 {
		return
	}
	switch c.renameBlock {
	case blockFetchEmpty, blockFetchNotReady:
		c.stalls.FetchDry += delta
	case blockROSFull:
		c.stalls.ROSFull += delta
	case blockLSQFull:
		c.stalls.LSQFull += delta
	case blockBranches:
		c.stalls.Branches += delta
	case blockNoPhysReg:
		c.stalls.NoPhysReg += delta
	}
	c.cycle = next
}

// GeometryOrder returns the indexes of cfgs in the order c should run
// them back to back. They are sorted by the sizes of the arrays Reset
// keeps only at an equal size (gshare table, L2, L1D and L1I lines,
// ROS, LSQ), the largest arrays compared first, and the sorted list is
// rotated to start at c's current geometry, so that each configuration,
// the first included, reuses as much of the last one's state as it
// can. The sort is stable: equal geometries keep their input order.
func (c *Core) GeometryOrder(cfgs []Config) []int {
	keys := make([][10]int, len(cfgs))
	order := make([]int, len(cfgs))
	for i := range cfgs {
		keys[i] = geometry(&cfgs[i])
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return slices.Compare(keys[a][:], keys[b][:])
	})
	cur := geometry(&c.cfg)
	p, _ := slices.BinarySearchFunc(order, cur, func(i int, k [10]int) int {
		return slices.Compare(keys[i][:], k[:])
	})
	return append(order[p:], order[:p]...)
}

// geometry is GeometryOrder's sort key.
func geometry(c *Config) [10]int {
	return [...]int{c.BPred.HistoryBits,
		c.Mem.L2.SizeBytes, c.Mem.L2.LineBytes, c.Mem.L2.Ways,
		c.Mem.L1D.SizeBytes, c.Mem.L1D.LineBytes,
		c.Mem.L1I.SizeBytes, c.Mem.L1I.LineBytes,
		ceilPow2(c.ROSSize), ceilPow2(c.LSQSize)}
}

// BatchCore runs many pipeline configurations over one shared trace on
// one recycled Core: one configuration after another, in the core's
// GeometryOrder, each through RunFast. The configurations share the
// core's pre-decode of the program (Reset rebuilds it only when the
// program changes) and every array whose geometry still fits. Results
// are bit-identical to separate Core.Run calls, and one configuration
// failing (config error, cycle-limit abort, checker violation) never
// disturbs another.
//
// A BatchCore is reusable across Run calls and traces. It is not safe
// for concurrent use; run concurrent batches on separate BatchCores.
type BatchCore struct {
	tr   *trace.Trace
	core Core
}

// NewBatch prepares a batch runner for the given trace.
func NewBatch(tr *trace.Trace) *BatchCore {
	return &BatchCore{tr: tr}
}

// SetTrace redirects the batch to a new trace.
func (b *BatchCore) SetTrace(tr *trace.Trace) { b.tr = tr }

// Run simulates every configuration against the batch's trace and
// returns per-configuration results and errors (indexes match cfgs). A
// configuration with an error has a nil result; the others always run
// to completion.
func (b *BatchCore) Run(cfgs []Config) ([]*Result, []error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	for _, i := range b.core.GeometryOrder(cfgs) {
		if errs[i] = b.core.Reset(cfgs[i], b.tr); errs[i] == nil {
			results[i], errs[i] = b.core.RunFast()
		}
	}
	return results, errs
}
