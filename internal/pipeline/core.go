package pipeline

import (
	"fmt"

	"earlyrelease/internal/bpred"
	"earlyrelease/internal/cache"
	"earlyrelease/internal/isa"
	"earlyrelease/internal/regstate"
	"earlyrelease/internal/release"
	"earlyrelease/internal/rename"
	"earlyrelease/internal/trace"
)

const farFuture int64 = 1 << 60

// uop is one in-flight instruction: a reorder-structure entry.
type uop struct {
	release.Slot

	inst isa.Inst
	pc   uint64
	cur  trace.Cursor // position in the driving trace; correct path only

	// Predicates of inst, decoded once at fetch so the per-cycle loops
	// never go back to the opcode table.
	isLoad     bool
	isStore    bool
	isMem      bool
	isBranch   bool
	isIndirect bool
	isHalt     bool
	fu         isa.FUKind

	issued        bool
	completed     bool
	completeCycle int64

	isCtrl       bool
	checkpointed bool
	predTaken    bool
	actTaken     bool
	predNext     uint64
	actNext      uint64
	snap         bpred.Snapshot
	resolved     bool
	mispredicted bool

	effAddr uint64
	srcVer  [2]uint64 // checker: source versions captured at rename
}

// fetchItem is one instruction waiting in the fetch queue between the
// fetch and rename stages.
type fetchItem struct {
	inst       isa.Inst
	meta       instMeta
	pc         uint64
	cur        trace.Cursor
	effAddr    uint64
	wrongPath  bool
	predTaken  bool
	predNext   uint64
	actTaken   bool
	actNext    uint64
	snap       bpred.Snapshot
	mispredict bool // front end knows this prediction diverges from the trace
	readyAt    int64
}

// Stalls breaks down the cycles in which rename could not dispatch its
// full width, by the resource that blocked the head instruction.
type Stalls struct {
	NoPhysReg int64 // free list empty: the paper's register-pressure stall
	ROSFull   int64
	LSQFull   int64
	Branches  int64 // pending-branch (checkpoint) limit
	FetchDry  int64 // nothing in the fetch queue
}

// Result summarizes one simulation.
type Result struct {
	Name      string
	Policy    string
	Cycles    int64
	Committed uint64
	IPC       float64

	BranchAccuracy float64
	Mispredicts    uint64
	WrongPathUops  uint64
	Exceptions     uint64

	IntBreakdown regstate.Breakdown
	FPBreakdown  regstate.Breakdown

	Release release.Stats
	Stalls  Stalls

	L1DMissRate float64
	L2MissRate  float64
	L1IMissRate float64
}

// Core is one simulation instance. Create with New, run with Run. A Core
// can be recycled across runs with Reset, which reuses the large
// allocations (reorder structure, queues, predictor and cache arrays) —
// the experiment sweeps run hundreds of simulations per worker and would
// otherwise spend a large fraction of their time in the allocator.
type Core struct {
	cfg Config
	tr  *trace.Trace

	engine  *release.Engine
	bp      *bpred.Predictor
	mem     *cache.Hierarchy
	tracker [2]*regstate.Tracker
	checker *regstate.Checker

	// Reorder structure: a power-of-two ring addressed with a mask.
	// Sequence numbers of in-flight uops are consecutive (headSeq at the
	// head), so seq -> ring slot is pure arithmetic and no seq->entry map
	// is needed: slot(seq) = (head + (seq - headSeq)) & rosMask.
	ros     []uop
	rosMask int
	head    int
	count   int
	headSeq uint64 // Seq of the oldest in-flight uop; valid while count > 0
	nextSeq uint64

	// Age-ordered doubly-linked list (by ring slot index) of dispatched
	// but not yet issued uops: the issue stage scans only these instead
	// of the whole window.
	unNext []int32
	unPrev []int32
	unHead int32
	unTail int32

	// Completion wheel: wheel[cycle&wheelMask] holds the sequence numbers
	// of uops whose execution completes that cycle, so writeback touches
	// O(events) entries instead of scanning the window.
	wheel     [][]uint64
	wheelMask int64

	// load/store queue: ring of in-flight memory ops in program order
	lsq     []lsqEntry
	lsqMask int
	lsqHead int
	lsqLen  int
	// non-wrong-path stores in the LSQ whose address is not yet known;
	// while zero, any load may issue without scanning the queue.
	pendingStoreAddrs int

	// scoreboard: per class, per physical register, the cycle its value
	// becomes available
	readyAt [2][]int64

	// fetch queue: ring written in place by the fetch stage
	fq     []fetchItem
	fqMask int
	fqHead int
	fqLen  int

	// fetch state
	cursor        trace.Cursor // next trace entry to fetch on the correct path
	wrongPath     bool
	wrongPC       uint64
	fetchStallTil int64
	haltFetched   bool
	lastFetchLine uint64

	cycle     int64
	committed uint64
	halted    bool

	// Pre-decode of tr's program: fetch reads every item's predicates
	// from it. Reset rebuilds it only when the program changes.
	dec *Decoded

	// Fast-path bookkeeping (see batch.go). renameBlock records why the
	// last renameStage call dispatched nothing (blockNone otherwise);
	// renameBound is the cycle the fetch-queue head becomes ready when
	// that is the blocker. wheelCount tracks outstanding completion-wheel
	// entries so an idle stretch can be fast-forwarded to the next event.
	renameBlock uint8
	renameBound int64
	wheelCount  int

	faults map[int]bool

	tracer *DebugTracer

	stalls     Stalls
	wrongUops  uint64
	exceptions uint64
}

type lsqEntry struct {
	seq       uint64
	isStore   bool
	wrongPath bool
	addr      uint64
	addrReady bool
}

// ceilPow2 returns the smallest power of two >= n.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New builds a core for the given trace.
func New(cfg Config, tr *trace.Trace) (*Core, error) {
	c := &Core{}
	if err := c.init(cfg, tr); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset re-initializes the core for a new run, reusing every allocation
// whose geometry still fits the new configuration. The subsequent Run
// produces results identical to a freshly built core's.
func (c *Core) Reset(cfg Config, tr *trace.Trace) error {
	return c.init(cfg, tr)
}

// Detach drops the core's references to its trace and program, so an
// idle core does not keep either alive. Every other allocation stays
// for the next Reset, which must supply the trace.
func (c *Core) Detach() {
	c.tr, c.dec = nil, nil
}

func (c *Core) init(cfg Config, tr *trace.Trace) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.Policy.IntRegs = cfg.IntRegs
	cfg.Policy.FPRegs = cfg.FPRegs
	c.cfg = cfg
	c.tr = tr

	var err error
	c.engine, err = release.NewEngine(cfg.Policy, c.lookupSlot, c.onFree)
	if err != nil {
		return err
	}
	c.bp = bpred.Recycle(c.bp, cfg.BPred)
	c.mem = cache.Recycle(c.mem, cfg.Mem)

	rosN := ceilPow2(cfg.ROSSize)
	if len(c.ros) != rosN {
		c.ros = make([]uop, rosN)
		c.unNext = make([]int32, rosN)
		c.unPrev = make([]int32, rosN)
	}
	c.rosMask = rosN - 1
	c.head, c.count = 0, 0
	c.headSeq, c.nextSeq = 0, 0
	c.unHead, c.unTail = -1, -1

	// The wheel must hold every latency the machine can produce: the
	// slowest functional unit or a miss walking the full hierarchy.
	maxLat := cfg.Mem.L1D.HitLat + cfg.Mem.L2.HitLat + cfg.Mem.MemLat
	if l := cfg.Mem.L1I.HitLat + cfg.Mem.L2.HitLat + cfg.Mem.MemLat; l > maxLat {
		maxLat = l
	}
	for k := 0; k < isa.NumFUKinds; k++ {
		if cfg.FULat[k] > maxLat {
			maxLat = cfg.FULat[k]
		}
	}
	wheelN := ceilPow2(maxLat + 2)
	if len(c.wheel) != wheelN {
		c.wheel = make([][]uint64, wheelN)
	}
	for i := range c.wheel {
		c.wheel[i] = c.wheel[i][:0]
	}
	c.wheelMask = int64(wheelN - 1)

	lsqN := ceilPow2(cfg.LSQSize)
	if len(c.lsq) != lsqN {
		c.lsq = make([]lsqEntry, lsqN)
	}
	c.lsqMask = lsqN - 1
	c.lsqHead, c.lsqLen = 0, 0
	c.pendingStoreAddrs = 0

	fqN := ceilPow2(cfg.FetchQueue)
	if len(c.fq) != fqN {
		c.fq = make([]fetchItem, fqN)
	}
	c.fqMask = fqN - 1
	c.fqHead, c.fqLen = 0, 0

	for cls, n := range [2]int{cfg.IntRegs, cfg.FPRegs} {
		if len(c.readyAt[cls]) != n {
			c.readyAt[cls] = make([]int64, n)
		} else {
			for i := range c.readyAt[cls] {
				c.readyAt[cls][i] = 0
			}
		}
	}

	if cfg.TrackRegStates {
		c.tracker[0] = regstate.Recycle(c.tracker[0], isa.ClassInt, cfg.IntRegs)
		c.tracker[1] = regstate.Recycle(c.tracker[1], isa.ClassFP, cfg.FPRegs)
	} else {
		c.tracker[0], c.tracker[1] = nil, nil
	}
	if cfg.Check {
		c.checker = regstate.NewChecker(cfg.IntRegs, cfg.FPRegs)
	} else {
		c.checker = nil
	}
	if len(cfg.FaultAt) > 0 {
		c.faults = make(map[int]bool, len(cfg.FaultAt))
		for _, f := range cfg.FaultAt {
			c.faults[f] = true
		}
	} else {
		c.faults = nil
	}

	c.cursor = tr.Start()
	c.wrongPath, c.wrongPC = false, 0
	c.fetchStallTil = 0
	c.haltFetched = false
	c.lastFetchLine = 0
	c.cycle, c.committed = 0, 0
	c.halted = false
	c.stalls = Stalls{}
	c.wrongUops, c.exceptions = 0, 0
	if c.dec == nil || c.dec.prog != tr.Prog {
		c.dec = Decode(tr)
	}
	c.renameBlock = blockNone
	c.renameBound = 0
	c.wheelCount = 0
	return nil
}

// Rename-block reasons recorded for the fast path's stall accounting.
const (
	blockNone          uint8 = iota
	blockFetchEmpty          // fetch queue empty (FetchDry)
	blockFetchNotReady       // fetch-queue head still in the front end (FetchDry)
	blockROSFull
	blockLSQFull
	blockBranches
	blockNoPhysReg
)

func ci(class isa.RegClass) int {
	if class == isa.ClassFP {
		return 1
	}
	return 0
}

// slotIdx returns the ring slot of an in-flight sequence number.
func (c *Core) slotIdx(seq uint64) int {
	return (c.head + int(seq-c.headSeq)) & c.rosMask
}

// inFlight reports whether seq names a uop currently in the window.
func (c *Core) inFlight(seq uint64) bool {
	return c.count > 0 && seq-c.headSeq < uint64(c.count)
}

func (c *Core) lookupSlot(seq uint64) *release.Slot {
	if c.inFlight(seq) {
		return &c.ros[c.slotIdx(seq)].Slot
	}
	return nil
}

// onFree observes every register release for accounting and checking.
func (c *Core) onFree(class isa.RegClass, p rename.PhysReg, reason release.FreeReason) {
	if c.tracker[0] != nil {
		c.tracker[ci(class)].Free(p, c.cycle)
	}
	if c.checker != nil {
		c.checker.OnFree(class, p,
			reason == release.FreeEager, reason == release.FreeReuse)
	}
}

// Run simulates to completion and returns the result.
func (c *Core) Run() (*Result, error) {
	maxCycles := c.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 64*int64(c.tr.Len()) + 100_000
	}
	for !c.halted {
		if c.cycle >= maxCycles {
			return nil, fmt.Errorf("pipeline: cycle limit %d exceeded (%d/%d committed)",
				maxCycles, c.committed, c.tr.Len())
		}
		c.commitStage()
		if c.halted {
			break
		}
		c.writebackStage()
		c.issueStage()
		c.renameStage()
		c.fetchStage()
		c.cycle++
	}
	if c.checker != nil {
		if err := c.checker.Err(); err != nil {
			return nil, err
		}
	}
	return c.result(), nil
}

func (c *Core) result() *Result {
	r := &Result{
		Name:           c.tr.Prog.Name,
		Policy:         c.cfg.Policy.Kind.String(),
		Cycles:         c.cycle,
		Committed:      c.committed,
		BranchAccuracy: c.bp.Accuracy(),
		Mispredicts:    c.bp.DirMispred + c.bp.TgtMispred,
		WrongPathUops:  c.wrongUops,
		Exceptions:     c.exceptions,
		Release:        c.engine.Stats,
		Stalls:         c.stalls,
		L1DMissRate:    c.mem.L1D.MissRate(),
		L2MissRate:     c.mem.L2.MissRate(),
		L1IMissRate:    c.mem.L1I.MissRate(),
	}
	if c.cycle > 0 {
		r.IPC = float64(c.committed) / float64(c.cycle)
	}
	if c.tracker[0] != nil {
		c.tracker[0].CloseAll(c.cycle)
		c.tracker[1].CloseAll(c.cycle)
		r.IntBreakdown = c.tracker[0].Averages(c.cycle)
		r.FPBreakdown = c.tracker[1].Averages(c.cycle)
	}
	return r
}

// --- ring helpers -------------------------------------------------------

func (c *Core) at(i int) *uop { return &c.ros[i&c.rosMask] }

// forInFlight iterates the ROS oldest to youngest.
func (c *Core) forInFlight(fn func(u *uop) bool) {
	for i := 0; i < c.count; i++ {
		if !fn(c.at(c.head + i)) {
			return
		}
	}
}

// --- unissued list ------------------------------------------------------

// pushUnissued appends a freshly renamed uop's ring slot to the tail of
// the unissued list (rename proceeds in age order, so the list stays
// age-ordered).
func (c *Core) pushUnissued(idx int32) {
	c.unNext[idx] = -1
	c.unPrev[idx] = c.unTail
	if c.unTail >= 0 {
		c.unNext[c.unTail] = idx
	} else {
		c.unHead = idx
	}
	c.unTail = idx
}

// unlinkUnissued removes a slot from the unissued list (at issue).
func (c *Core) unlinkUnissued(idx int32) {
	prev, next := c.unPrev[idx], c.unNext[idx]
	if prev >= 0 {
		c.unNext[prev] = next
	} else {
		c.unHead = next
	}
	if next >= 0 {
		c.unPrev[next] = prev
	} else {
		c.unTail = prev
	}
}

// --- lsq ring -----------------------------------------------------------

func (c *Core) lsqAt(i int) *lsqEntry { return &c.lsq[(c.lsqHead+i)&c.lsqMask] }

// --- commit -------------------------------------------------------------

func (c *Core) commitStage() {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		u := c.at(c.head)
		if !u.completed || (u.isCtrl && !u.resolved) {
			return
		}
		if u.WrongPath {
			// The head of the window can never be wrong-path: wrong-path
			// uops are always younger than their unresolved branch.
			panic("pipeline: wrong-path uop reached commit")
		}
		if c.faults != nil && c.faults[u.cur.Index()] {
			delete(c.faults, u.cur.Index())
			c.raiseException(u.cur)
			return
		}
		// Architectural checks (§4.3 taint) before the rename commit.
		if c.checker != nil {
			for i := 0; i < 2; i++ {
				if u.SrcClass[i] != isa.ClassNone {
					c.checker.OnArchRead(u.SrcClass[i], u.SrcLog[i])
				}
			}
			if u.HasDst() {
				c.checker.OnArchWrite(u.DstClass, u.DstLog)
			}
		}
		if c.tracker[0] != nil {
			for i := 0; i < 2; i++ {
				if u.SrcClass[i] != isa.ClassNone {
					c.tracker[ci(u.SrcClass[i])].UseCommitted(u.SrcPhys[i], c.cycle)
				}
			}
			if u.HasDst() {
				c.tracker[ci(u.DstClass)].UseCommitted(u.DstPhys, c.cycle)
			}
		}
		if c.tracer != nil {
			c.tracer.event(c.cycle, "commit", u, "")
		}
		c.engine.Commit(&u.Slot)
		if u.isStore {
			c.mem.StoreLat(u.effAddr) // retire through the store buffer
		}
		if c.lsqLen > 0 && c.lsq[c.lsqHead&c.lsqMask].seq == u.Seq {
			c.lsqHead++
			c.lsqLen--
		}
		c.head++
		c.headSeq++
		c.count--
		c.committed++
		if u.isHalt {
			c.halted = true
			return
		}
	}
}

// raiseException performs precise-exception recovery at the trace entry
// at cur: flush the window, rebuild the rename state from the In-Order
// Map Tables, and restart fetch at the faulting instruction (the
// handler's return point) by restoring its cursor.
func (c *Core) raiseException(cur trace.Cursor) {
	c.exceptions++
	// Flush every in-flight instruction. The free lists are rebuilt
	// wholesale below, so individual squash releases are not performed.
	if c.checker != nil {
		c.forInFlight(func(u *uop) bool {
			if !u.issued {
				for i := 0; i < 2; i++ {
					if u.SrcClass[i] != isa.ClassNone {
						c.checker.OnReadDone(u.SrcClass[i], u.SrcPhys[i])
					}
				}
			}
			return true
		})
	}
	c.count = 0
	c.unHead, c.unTail = -1, -1
	c.lsqHead, c.lsqLen = 0, 0
	c.pendingStoreAddrs = 0
	c.fqHead, c.fqLen = 0, 0
	// Stale completion-wheel entries are skipped by the in-flight guard
	// in writebackStage; no need to drain the wheel here.

	taintedInt, taintedFP := c.engine.RecoverException()
	if c.checker != nil {
		c.checker.OnExceptionRecovery(taintedInt, taintedFP)
		c.resyncChecker()
	}
	c.resyncAfterException()

	c.cursor = cur
	c.wrongPath = false
	c.haltFetched = false
	c.fetchStallTil = c.cycle + c.cfg.ExceptionPenalty
}

// resyncAfterException reconciles the scoreboard and the lifetime
// tracker with the rebuilt allocation state: every surviving
// (architectural) register holds a committed value.
func (c *Core) resyncAfterException() {
	for cls := 0; cls < 2; cls++ {
		class := isa.ClassInt
		if cls == 1 {
			class = isa.ClassFP
		}
		st := c.engine.State(class)
		for p := 0; p < st.NumPhys; p++ {
			if st.IsAllocated(rename.PhysReg(p)) {
				c.readyAt[cls][p] = c.cycle
			} else {
				c.readyAt[cls][p] = farFuture
			}
		}
		if c.tracker[cls] != nil {
			tr := c.tracker[cls]
			for p := 0; p < st.NumPhys; p++ {
				pr := rename.PhysReg(p)
				alloc := st.IsAllocated(pr)
				tr.Resync(pr, alloc, c.cycle)
			}
		}
	}
}

// resyncChecker rebuilds reader counts and the held bitmap after a full
// flush (versions are preserved inside the checker; reader counts reset
// and the allocation view reseeds from the rebuilt rename state, since
// RecoverFromIOMT reconstructs the free lists without routing each
// release through the free hook).
func (c *Core) resyncChecker() {
	c.checker.ResetReaders()
	c.checker.SyncHeld(isa.ClassInt, c.engine.State(isa.ClassInt))
	c.checker.SyncHeld(isa.ClassFP, c.engine.State(isa.ClassFP))
}

// AllocatedRegs reports the number of currently-allocated physical
// registers per class; the invariant regression suite asserts register
// conservation at end of run.
func (c *Core) AllocatedRegs() (intRegs, fpRegs int) {
	return c.engine.State(isa.ClassInt).AllocatedCount(),
		c.engine.State(isa.ClassFP).AllocatedCount()
}

// InFlight reports the number of uops still in the window (uncommitted
// younger instructions left behind when HALT commits).
func (c *Core) InFlight() int { return c.count }
