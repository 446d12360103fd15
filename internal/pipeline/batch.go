package pipeline

import (
	"fmt"

	"earlyrelease/internal/trace"
)

// This file implements the batched lockstep execution path: one shared
// trace pre-decode (Decoded) drives N per-config lanes, each stepped by
// an event-aware fast loop. The fast loop calls exactly the stage
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

// batchChunk is the lockstep quantum: each lane advances up to this
// many fast-loop iterations (one simulated cycle or one idle
// fast-forward each) before the batch rotates to the next lane, keeping
// the shared trace and pre-decode hot while bounding per-lane drift.
const batchChunk = 4096

// maxCyclesFor mirrors Run's runaway-simulation bound.
func (c *Core) maxCyclesFor() int64 {
	if c.cfg.MaxCycles != 0 {
		return c.cfg.MaxCycles
	}
	return 64*int64(c.tr.Len()) + 100_000
}

// runChunk advances the simulation by at most iters fast-loop
// iterations. done reports that the run finished (halted or errored);
// the result is then available via finish.
func (c *Core) runChunk(iters int) (done bool, err error) {
	maxCycles := c.maxCyclesFor()
	for ; iters > 0 && !c.halted; iters-- {
		if c.cycle >= maxCycles {
			return true, fmt.Errorf("pipeline: cycle limit %d exceeded (%d/%d committed)",
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
	return c.halted, nil
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
		(c.wrongPath || c.cursor < c.tr.Len()) {
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

// finish runs the post-loop checks and builds the result, exactly as
// Run does after its loop exits.
func (c *Core) finish() (*Result, error) {
	if c.checker != nil {
		if err := c.checker.Err(); err != nil {
			return nil, err
		}
	}
	return c.result(), nil
}

// BatchCore steps N pipeline configurations over one shared trace in
// lockstep. All lanes read the same pre-decoded instruction metadata
// (one decode of the program image per batch, not one per lane per
// fetch) and advance through the fast loop in round-robin chunks. Lanes
// are fully independent otherwise — each owns its complete
// microarchitectural state — so results are bit-identical to N separate
// Core.Run calls, and one lane failing (config error, cycle-limit
// abort, checker violation) never disturbs its siblings.
//
// A BatchCore is reusable: Run resets and re-drives the same lane cores
// across calls, retaining their allocations just as the sweep engine's
// scalar workers recycle a single Core. It is not safe for concurrent
// use; run concurrent batches on separate BatchCores.
type BatchCore struct {
	tr    *trace.Trace
	dec   *Decoded
	lanes []*Core
}

// NewBatch prepares a batch runner for the given trace.
func NewBatch(tr *trace.Trace) *BatchCore {
	return &BatchCore{tr: tr, dec: Decode(tr)}
}

// SetTrace redirects the batch to a new trace, rebuilding the shared
// pre-decode only when the program image actually changed.
func (b *BatchCore) SetTrace(tr *trace.Trace) {
	if tr == b.tr {
		return
	}
	if b.dec == nil || tr.Prog != b.dec.prog {
		b.dec = Decode(tr)
	}
	b.tr = tr
}

// Detach drops the batch's and its lanes' references to the trace and
// its pre-decode, keeping the lanes' allocations. Call SetTrace before
// the next Run.
func (b *BatchCore) Detach() {
	b.tr, b.dec = nil, nil
	for _, l := range b.lanes {
		l.Detach()
	}
}

// Run simulates every configuration against the batch's trace and
// returns per-lane results and errors (indexes match cfgs). A lane
// with an error has a nil result; sibling lanes always run to
// completion.
func (b *BatchCore) Run(cfgs []Config) ([]*Result, []error) {
	n := len(cfgs)
	results := make([]*Result, n)
	errs := make([]error, n)
	for len(b.lanes) < n {
		b.lanes = append(b.lanes, &Core{})
	}

	// Lane setup. A config that fails validation is reported on its own
	// lane and excluded from stepping.
	running := make([]bool, n)
	remaining := 0
	for i := 0; i < n; i++ {
		b.lanes[i].dec = b.dec // init keeps a table whose program matches
		if err := b.lanes[i].init(cfgs[i], b.tr); err != nil {
			errs[i] = err
			continue
		}
		running[i] = true
		remaining++
	}

	for remaining > 0 {
		for i := 0; i < n; i++ {
			if !running[i] {
				continue
			}
			done, err := b.lanes[i].runChunk(batchChunk)
			if !done {
				continue
			}
			running[i] = false
			remaining--
			if err != nil {
				errs[i] = err
				continue
			}
			results[i], errs[i] = b.lanes[i].finish()
		}
	}
	return results, errs
}
