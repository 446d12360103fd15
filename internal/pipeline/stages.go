package pipeline

import (
	"fmt"

	"earlyrelease/internal/bpred"
	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
	"earlyrelease/internal/release"
)

// --- fetch ----------------------------------------------------------------

// fetchStage fills the fetch queue along the predicted path: from the
// trace while predictions agree with the recorded outcomes, from the
// static program image once a prediction diverges (wrong-path mode).
// Items are written in place into the fetch-queue ring; nothing is
// copied or reallocated on the fetch path.
func (c *Core) fetchStage() {
	if c.cycle < c.fetchStallTil || c.haltFetched {
		return
	}
	taken := 0
	for n := 0; n < c.cfg.FetchWidth && c.fqLen < c.cfg.FetchQueue; n++ {
		var pc uint64
		if c.wrongPath {
			pc = c.wrongPC
		} else {
			if c.cursor >= c.tr.Len() {
				return
			}
			pc = c.tr.PC(c.cursor)
		}
		// Instruction cache: pay the miss latency when a new line is
		// touched.
		line := pc / uint64(c.mem.LineBytesI())
		if line != c.lastFetchLine {
			c.lastFetchLine = line
			if lat := c.mem.FetchLat(pc); lat > 1 {
				c.fetchStallTil = c.cycle + int64(lat)
				return
			}
		}
		item := &c.fq[(c.fqHead+c.fqLen)&c.fqMask]
		if c.wrongPath {
			c.fetchWrongPath(pc, item)
			c.wrongUops++
		} else {
			c.fetchOnTrace(item)
		}
		item.readyAt = c.cycle + int64(c.cfg.FrontEndDepth)
		c.fqLen++
		if item.meta.is(mHalt) {
			if item.wrongPath {
				// Wrong path ran into HALT/end of text: stall until the
				// mispredicted branch resolves.
				c.fqLen--
				c.wrongUops--
			}
			c.haltFetched = true
			return
		}
		if item.predTaken {
			taken++
			if taken >= c.cfg.MaxTakenPerCycle {
				return
			}
		}
	}
}

// fetchOnTrace fetches the next correct-path instruction into item, runs
// the predictors, and switches to wrong-path mode if a prediction
// diverges from the recorded execution.
func (c *Core) fetchOnTrace(item *fetchItem) {
	e := c.tr.At(c.cursor)
	in := c.tr.Inst(c.cursor)
	pc := c.tr.PC(c.cursor)
	next := c.tr.NextPC(c.cursor)
	item.inst = in
	item.meta = c.dec.meta[e.Idx]
	item.pc = pc
	item.traceIdx = c.cursor
	item.wrongPath = false
	item.predTaken = false
	item.predNext = 0
	item.actTaken = e.Taken
	item.actNext = next
	item.snap = bpred.Snapshot{}
	item.mispredict = false
	c.cursor++
	switch {
	case item.meta.is(mBranch):
		item.snap = c.bp.Snap()
		item.predTaken = c.bp.Predict(pc)
		if item.predTaken == e.Taken {
			item.predNext = next
		} else {
			item.mispredict = true
			if item.predTaken {
				item.predNext = takenTarget(pc, in)
			} else {
				item.predNext = pc + isa.InstBytes
			}
			c.wrongPath = true
			c.wrongPC = item.predNext
		}
	case item.meta.is(mJAL):
		// Direct target: computed by the front end, never mispredicted.
		item.predTaken = true
		item.predNext = next
		if item.meta.is(mCall) {
			c.bp.OnCall(pc + isa.InstBytes)
		}
	case item.meta.is(mIndirect):
		item.snap = c.bp.Snap()
		tgt, ok := c.bp.PredictTarget(in, pc)
		if !ok {
			tgt = pc + isa.InstBytes
		}
		item.predTaken = true
		item.predNext = tgt
		if item.meta.is(mCall) {
			c.bp.OnCall(pc + isa.InstBytes)
		}
		if tgt != next {
			item.mispredict = true
			c.wrongPath = true
			c.wrongPC = tgt
		}
	default:
		item.predNext = pc + isa.InstBytes
	}
}

// fetchWrongPath synthesizes a wrong-path instruction from the static
// program image into item. Its "actual" outcome is defined as the
// predicted one: wrong-path branches confirm rather than recover.
func (c *Core) fetchWrongPath(pc uint64, item *fetchItem) {
	in, _ := c.tr.Prog.FetchAt(pc)
	item.inst = in
	item.meta = *c.dec.at(pc)
	item.pc = pc
	item.traceIdx = -1
	item.wrongPath = true
	item.predTaken = false
	item.actTaken = false
	item.snap = bpred.Snapshot{}
	item.mispredict = false
	next := pc + isa.InstBytes
	switch {
	case item.meta.is(mBranch):
		item.snap = c.bp.Snap()
		item.predTaken = c.bp.Predict(pc)
		if item.predTaken {
			next = takenTarget(pc, in)
		}
	case item.meta.is(mJAL):
		item.predTaken = true
		next = jalTarget(pc, in)
		if item.meta.is(mCall) {
			c.bp.OnCall(pc + isa.InstBytes)
		}
	case item.meta.is(mIndirect):
		item.snap = c.bp.Snap()
		if tgt, ok := c.bp.PredictTarget(in, pc); ok {
			next = tgt
		}
		item.predTaken = true
		if item.meta.is(mCall) {
			c.bp.OnCall(pc + isa.InstBytes)
		}
	}
	item.predNext = next
	item.actTaken = item.predTaken
	item.actNext = next
	c.wrongPC = next
}

func takenTarget(pc uint64, in isa.Inst) uint64 {
	return pc + isa.InstBytes + uint64(in.Imm)*isa.InstBytes
}

func jalTarget(pc uint64, in isa.Inst) uint64 {
	return pc + isa.InstBytes + uint64(in.Imm)*isa.InstBytes
}

// --- rename / dispatch ------------------------------------------------------

// renameStage moves instructions from the fetch queue into the reorder
// structure, allocating registers, LSQ entries and branch checkpoints.
func (c *Core) renameStage() {
	c.renameBlock = blockNone
	for n := 0; n < c.cfg.DecodeWidth; n++ {
		if c.fqLen == 0 {
			if n == 0 {
				c.stalls.FetchDry++
				c.renameBlock = blockFetchEmpty
			}
			return
		}
		item := &c.fq[c.fqHead&c.fqMask]
		if item.readyAt > c.cycle {
			if n == 0 {
				c.stalls.FetchDry++
				c.renameBlock = blockFetchNotReady
				c.renameBound = item.readyAt
			}
			return
		}
		in := item.inst
		m := &item.meta
		if c.count >= c.cfg.ROSSize {
			if n == 0 {
				c.stalls.ROSFull++
				c.renameBlock = blockROSFull
			}
			return
		}
		if m.is(mMem) && c.lsqLen >= c.cfg.LSQSize {
			if n == 0 {
				c.stalls.LSQFull++
				c.renameBlock = blockLSQFull
			}
			return
		}
		needsChk := m.is(mBranch | mIndirect)
		if needsChk && !c.engine.CanCheckpoint() {
			if n == 0 {
				c.stalls.Branches++
				c.renameBlock = blockBranches
			}
			return
		}
		needInt, needFP := 0, 0
		if m.is(mHasDst) {
			if m.dstClass == isa.ClassInt {
				needInt = 1
			} else {
				needFP = 1
			}
		}
		if !c.engine.CanRename(needInt, needFP) {
			if n == 0 {
				c.stalls.NoPhysReg++
				c.renameBlock = blockNoPhysReg
			}
			return
		}

		// Allocate the reorder-structure entry. In-flight sequence
		// numbers stay consecutive (recovery rewinds nextSeq), which is
		// what makes seq -> slot arithmetic in lookupSlot valid. The
		// recycled entry is initialized field by field: a whole-struct
		// literal would build and copy a ~150-byte temporary per rename.
		seq := c.nextSeq
		c.nextSeq++
		idx := (c.head + c.count) & c.rosMask
		u := &c.ros[idx]
		if c.count == 0 {
			c.headSeq = seq
		}
		c.count++
		u.Slot = release.Slot{Seq: seq, WrongPath: item.wrongPath}
		u.inst = in
		u.pc = item.pc
		u.traceIdx = item.traceIdx
		u.isLoad = m.is(mLoad)
		u.isStore = m.is(mStore)
		u.isMem = m.is(mMem)
		u.isBranch = m.is(mBranch)
		u.isIndirect = m.is(mIndirect)
		u.isHalt = m.is(mHalt)
		u.fu = m.fu
		u.issued = false
		u.completed = false
		u.completeCycle = 0
		u.isCtrl = m.is(mCtrl)
		u.checkpointed = false
		u.predTaken = item.predTaken
		u.actTaken = item.actTaken
		u.predNext = item.predNext
		u.actNext = item.actNext
		u.snap = item.snap
		u.resolved = false
		u.mispredicted = false
		u.effAddr = 0
		u.srcVer[0], u.srcVer[1] = 0, 0
		if u.isMem {
			if item.traceIdx >= 0 {
				u.effAddr = c.tr.At(item.traceIdx).EffAddr
			} else {
				// Wrong-path memory op: synthesize a deterministic address.
				u.effAddr = program.DataBase + (item.pc*2654435761)%(1<<16)
			}
		}
		// Operand classes for the release engine.
		u.SrcClass = m.srcClass
		u.SrcLog = [2]isa.Reg{in.Rs1, in.Rs2}
		if m.is(mHasDst) {
			u.DstClass = m.dstClass
			u.DstLog = in.Rd
		} else {
			u.DstClass = isa.ClassNone
		}

		c.engine.Rename(&u.Slot)
		c.pushUnissued(int32(idx))

		// Scoreboard and instrumentation.
		if c.checker != nil {
			for i := 0; i < 2; i++ {
				if u.SrcClass[i] != isa.ClassNone {
					c.checker.OnRenameRead(u.SrcClass[i], u.SrcPhys[i])
					u.srcVer[i] = c.checker.Version(u.SrcClass[i], u.SrcPhys[i])
				}
			}
		}
		if u.HasDst() {
			c.readyAt[ci(u.DstClass)][u.DstPhys] = farFuture
			if c.tracker[0] != nil {
				c.tracker[ci(u.DstClass)].Alloc(u.DstPhys, c.cycle)
			}
			if c.checker != nil {
				c.checker.OnAlloc(u.DstClass, u.DstPhys, u.AllocatedNew)
			}
		}
		if u.isMem {
			c.lsq[(c.lsqHead+c.lsqLen)&c.lsqMask] = lsqEntry{
				seq:       seq,
				isStore:   u.isStore,
				wrongPath: item.wrongPath,
				addr:      u.effAddr,
			}
			c.lsqLen++
			if u.isStore && !item.wrongPath {
				c.pendingStoreAddrs++
			}
		}
		if needsChk {
			if !c.engine.PushBranch(seq) {
				panic("pipeline: checkpoint stack full despite CanCheckpoint")
			}
			u.checkpointed = true
		}
		if c.tracer != nil {
			c.tracer.event(c.cycle, "rename", u, "")
		}
		c.fqHead++
		c.fqLen--
	}
}

// --- issue ------------------------------------------------------------------

// issueStage selects ready instructions oldest-first, bounded by issue
// width and functional-unit availability. Only the unissued list is
// scanned — already-issued window entries cost nothing.
//
// It returns the issue count plus a stability bit for the fast path:
// stable means no skipped instruction had ready operands, so with zero
// issues the issue stage stays empty until a writeback event makes a
// new operand ready — time alone cannot unblock it (renamed operands
// sit at farFuture until written back). A ready instruction skipped for
// a structural reason (FU pool, memory ordering) reports unstable,
// because those conditions are relieved by in-cycle state, not events.
func (c *Core) issueStage() (int, bool) {
	issued := 0
	stable := true
	var fuUsed [isa.NumFUKinds]int
	for idx := c.unHead; idx >= 0 && issued < c.cfg.IssueWidth; {
		u := &c.ros[idx]
		next := c.unNext[idx]
		if !c.operandsReady(u) {
			idx = next
			continue
		}
		fu := u.fu
		if fuUsed[fu] >= c.cfg.FUCount[fu] {
			stable = false
			idx = next
			continue
		}
		if u.isLoad && !u.WrongPath && !c.loadMayIssue(u) {
			stable = false
			idx = next
			continue
		}
		fuUsed[fu]++
		issued++
		u.issued = true
		u.completeCycle = c.cycle + int64(c.execLatency(u))
		c.unlinkUnissued(idx)
		slot := u.completeCycle & c.wheelMask
		c.wheel[slot] = append(c.wheel[slot], u.Seq)
		c.wheelCount++
		if c.tracer != nil {
			c.tracer.event(c.cycle, "issue", u, fmt.Sprintf(" lat=%d", u.completeCycle-c.cycle))
		}
		if u.isMem {
			c.markLSQIssued(u.Seq)
		}
		if c.checker != nil {
			for s := 0; s < 2; s++ {
				if u.SrcClass[s] != isa.ClassNone {
					c.checker.OnOperandRead(u.SrcClass[s], u.SrcPhys[s], u.srcVer[s])
					c.checker.OnReadDone(u.SrcClass[s], u.SrcPhys[s])
				}
			}
		}
		idx = next
	}
	return issued, stable
}

func (c *Core) operandsReady(u *uop) bool {
	// Stores issue as address computations: only the base register
	// (src1) gates issue. The data register is architecturally older
	// than the store and therefore complete by the time the store
	// commits and writes memory.
	nsrc := 2
	if u.isStore {
		nsrc = 1
	}
	for i := 0; i < nsrc; i++ {
		if u.SrcClass[i] == isa.ClassNone {
			continue
		}
		if c.readyAt[ci(u.SrcClass[i])][u.SrcPhys[i]] > c.cycle {
			return false
		}
	}
	return true
}

// loadMayIssue enforces Table 2's memory ordering: a load issues only
// when every older store's address is known. A matching older store
// forwards (the load then takes a 1-cycle latency). While no store in
// the queue has an unknown address the scan is skipped entirely.
func (c *Core) loadMayIssue(u *uop) bool {
	if c.pendingStoreAddrs == 0 {
		return true
	}
	for i := 0; i < c.lsqLen; i++ {
		e := c.lsqAt(i)
		if e.seq >= u.Seq {
			break
		}
		if e.isStore && !e.wrongPath && !e.addrReady {
			return false
		}
	}
	return true
}

// forwardedFromStore reports whether an older store to the same word
// supplies the load's value.
func (c *Core) forwardedFromStore(u *uop) bool {
	word := u.effAddr &^ 7
	hit := false
	for i := 0; i < c.lsqLen; i++ {
		e := c.lsqAt(i)
		if e.seq >= u.Seq {
			break
		}
		if e.isStore && !e.wrongPath && e.addr&^7 == word {
			hit = true // youngest older store wins; keep scanning
		}
	}
	return hit
}

func (c *Core) markLSQIssued(seq uint64) {
	for i := 0; i < c.lsqLen; i++ {
		e := c.lsqAt(i)
		if e.seq == seq {
			if e.isStore && !e.wrongPath && !e.addrReady {
				c.pendingStoreAddrs--
			}
			e.addrReady = true
			return
		}
	}
}

// execLatency returns the operation's total execution latency, including
// cache access for loads.
func (c *Core) execLatency(u *uop) int {
	if u.isLoad {
		if u.WrongPath {
			return 1 // wrong-path loads do not probe the cache (documented)
		}
		if c.forwardedFromStore(u) {
			return 1
		}
		return c.mem.LoadLat(u.effAddr)
	}
	if u.isStore {
		return 1 // address/data capture; memory written at commit
	}
	return c.cfg.FULat[u.fu]
}

// --- writeback / branch resolution -------------------------------------------

// writebackStage completes executed instructions, wakes dependents and
// resolves control flow. At most one misprediction (the oldest) recovers
// per cycle. Completions come off the wheel bucket for this cycle —
// O(events), not O(window). Bucket entries are processed oldest-first;
// stale entries (for uops squashed after issue, possibly with their
// sequence number since reassigned) are filtered by the in-flight /
// issued / completeCycle guards.
// It reports whether any wheel entries (live or stale) were drained
// this cycle; the fast path treats a drained bucket as activity.
func (c *Core) writebackStage() bool {
	slot := c.cycle & c.wheelMask
	bucket := c.wheel[slot]
	if len(bucket) == 0 {
		return false
	}
	c.wheelCount -= len(bucket)
	// Insertion sort by sequence number: buckets are tiny and the age
	// order must match the seed's oldest-first window scan.
	for i := 1; i < len(bucket); i++ {
		for j := i; j > 0 && bucket[j-1] > bucket[j]; j-- {
			bucket[j-1], bucket[j] = bucket[j], bucket[j-1]
		}
	}
	var recoverU *uop
	for _, seq := range bucket {
		if !c.inFlight(seq) {
			continue
		}
		u := &c.ros[c.slotIdx(seq)]
		if !u.issued || u.completed || u.completeCycle != c.cycle {
			continue
		}
		u.completed = true
		if c.tracer != nil {
			c.tracer.event(c.cycle, "writeback", u, "")
		}
		c.engine.Executed(&u.Slot)
		if u.HasDst() {
			c.readyAt[ci(u.DstClass)][u.DstPhys] = c.cycle
			if c.tracker[0] != nil {
				c.tracker[ci(u.DstClass)].Write(u.DstPhys, c.cycle)
			}
		}
		if u.isCtrl && !u.resolved {
			if c.resolveCtrl(u) && recoverU == nil {
				recoverU = u
			}
		}
	}
	c.wheel[slot] = bucket[:0]
	if recoverU != nil {
		c.recover(recoverU)
	}
	return true
}

// resolveCtrl resolves one control instruction; it returns true when the
// instruction mispredicted and needs recovery.
func (c *Core) resolveCtrl(u *uop) bool {
	u.resolved = true
	if u.WrongPath {
		// Wrong-path control confirms as predicted; it cannot trigger
		// recovery (its true outcome is unknowable) but must release its
		// checkpoint so the stack drains.
		if u.checkpointed {
			c.engine.ConfirmBranch(u.Seq)
			u.checkpointed = false
		}
		return false
	}
	if u.isBranch {
		c.bp.Resolve(u.pc, u.snap, u.actTaken)
	}
	if u.isIndirect {
		c.bp.ResolveTarget(u.pc, u.actNext, u.predNext != u.actNext)
	}
	if u.predNext == u.actNext && u.predTaken == u.actTaken {
		if u.checkpointed {
			c.engine.ConfirmBranch(u.Seq)
			u.checkpointed = false
		}
		return false
	}
	u.mispredicted = true
	return true
}

// recover squashes everything younger than the mispredicted control
// instruction, restores the rename/predictor state and redirects fetch.
func (c *Core) recover(br *uop) {
	// br's window position follows from sequence arithmetic.
	if !c.inFlight(br.Seq) {
		panic("pipeline: recovering branch not in window")
	}
	pos := int(br.Seq - c.headSeq)
	// Squash young -> old.
	for i := c.count - 1; i > pos; i-- {
		u := c.at(c.head + i)
		if u.checkpointed {
			// The engine drops younger checkpoints during
			// MispredictBranch; nothing to do here.
			u.checkpointed = false
		}
		if c.checker != nil && !u.issued {
			for s := 0; s < 2; s++ {
				if u.SrcClass[s] != isa.ClassNone {
					c.checker.OnReadDone(u.SrcClass[s], u.SrcPhys[s])
				}
			}
		}
		c.engine.SquashSlot(&u.Slot)
	}
	c.count = pos + 1
	// Squashed uops can no longer issue: drop them off the unissued
	// list's tail (they are exactly the youngest entries).
	for c.unTail >= 0 && c.ros[c.unTail].Seq > br.Seq {
		c.unlinkUnissued(c.unTail)
	}
	// Rewind the sequence counter so in-flight numbers stay consecutive;
	// the squashed numbers are reassigned to the correct-path refill.
	c.nextSeq = br.Seq + 1
	// Trim the LSQ to entries at or older than the branch.
	cut := c.lsqLen
	for i := 0; i < c.lsqLen; i++ {
		if c.lsqAt(i).seq > br.Seq {
			cut = i
			break
		}
	}
	for i := cut; i < c.lsqLen; i++ {
		e := c.lsqAt(i)
		if e.isStore && !e.wrongPath && !e.addrReady {
			c.pendingStoreAddrs--
		}
	}
	c.lsqLen = cut
	c.fqLen = 0

	if br.checkpointed {
		c.engine.MispredictBranch(br.Seq)
		br.checkpointed = false
	}
	// Predictor recovery.
	if br.isBranch {
		c.bp.Recover(br.snap, br.actTaken)
	} else if br.isIndirect {
		c.bp.RecoverIndirect(br.inst, br.snap)
	}
	if c.tracer != nil {
		c.tracer.note(c.cycle, fmt.Sprintf("RECOVER    seq=%d pc=%#06x squashed=%d",
			br.Seq, br.pc, 0))
	}
	// Redirect fetch to the correct path.
	c.wrongPath = false
	c.haltFetched = false
	c.cursor = br.traceIdx + 1
	c.fetchStallTil = c.cycle + 1
	c.lastFetchLine = 0
}
