// Package trace defines the dynamic instruction trace produced by the
// functional emulator and consumed by the cycle-level timing pipeline.
//
// The simulator is trace-driven with wrong-path execution: the trace
// carries the committed (architecturally correct) path, and the pipeline
// synthesizes wrong-path instructions from the static program image when
// a branch is mispredicted.
package trace

import (
	"fmt"
	"math/bits"

	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
)

// Entry is one dynamically executed (retired) instruction, as the
// emulator's Step returns it. The instruction itself and its address are
// functions of Idx, and the address of the next retired instruction is
// the next entry's, so neither is stored; Trace's accessors reconstruct
// them.
type Entry struct {
	EffAddr uint64 // effective address for memory operations
	Idx     uint32 // index of the instruction in Prog.Insts
	Taken   bool   // for control instructions: transfer taken
}

// Trace is a complete dynamic execution of a program, stored by column:
// one instruction index per entry, one taken bit and one address bit per
// entry, and only the nonzero effective addresses. Entry i's address is
// addrs[rank[i/64] + (address bits set below i in its word)], so every
// accessor is O(1) and random access (the pipeline's exception rewind)
// costs no scan. An entry whose EffAddr is 0 stores no address and
// reads back 0, the same value, so every Entry round-trips.
type Trace struct {
	Prog *program.Program
	End  uint64 // PC after the last entry: NextPC of the last instruction

	idx   []uint32 // instruction index per entry
	taken []uint64 // taken bit per entry, 64 entries per word
	nz    []uint64 // nonzero-address bit per entry, 64 entries per word
	rank  []uint32 // per word of nz: addresses stored before it
	addrs []uint64 // the nonzero effective addresses, in trace order
}

// New returns an empty trace whose columns have room for exactly n
// entries holding addrs nonzero effective addresses, so that appending
// that many leaves every column's capacity equal to its length.
func New(p *program.Program, n, addrs int) *Trace {
	words := (n + 63) / 64
	return &Trace{
		Prog:  p,
		idx:   make([]uint32, 0, n),
		taken: make([]uint64, 0, words),
		nz:    make([]uint64, 0, words),
		rank:  make([]uint32, 0, words),
		addrs: make([]uint64, 0, addrs),
	}
}

// Append records e as the trace's next entry.
func (t *Trace) Append(e Entry) {
	i := len(t.idx)
	if i&63 == 0 {
		t.taken = append(t.taken, 0)
		t.nz = append(t.nz, 0)
		t.rank = append(t.rank, uint32(len(t.addrs)))
	}
	bit := uint64(1) << (i & 63)
	if e.Taken {
		t.taken[i>>6] |= bit
	}
	if e.EffAddr != 0 {
		t.nz[i>>6] |= bit
		t.addrs = append(t.addrs, e.EffAddr)
	}
	t.idx = append(t.idx, e.Idx)
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.idx) }

// Idx returns the i-th dynamic instruction's index in Prog.Insts.
func (t *Trace) Idx(i int) uint32 { return t.idx[i] }

// Taken reports whether the i-th dynamic instruction transferred
// control.
func (t *Trace) Taken(i int) bool { return t.taken[i>>6]>>(i&63)&1 != 0 }

// EffAddr returns the i-th dynamic instruction's effective address, 0
// for an instruction that has none.
func (t *Trace) EffAddr(i int) uint64 {
	w, b := i>>6, uint(i&63)
	m := t.nz[w]
	if m>>b&1 == 0 {
		return 0
	}
	return t.addrs[int(t.rank[w])+bits.OnesCount64(m&(1<<b-1))]
}

// At returns the i-th dynamic instruction as the emulator recorded it.
func (t *Trace) At(i int) Entry {
	return Entry{EffAddr: t.EffAddr(i), Idx: t.idx[i], Taken: t.Taken(i)}
}

// Bytes returns the heap bytes the trace's columns hold: their
// capacities times their element sizes.
func (t *Trace) Bytes() int64 {
	return 4*int64(cap(t.idx)) + 8*int64(cap(t.taken)+cap(t.nz)) +
		4*int64(cap(t.rank)) + 8*int64(cap(t.addrs))
}

// PC returns the address of the i-th dynamic instruction.
func (t *Trace) PC(i int) uint64 { return program.IndexToPC(int(t.idx[i])) }

// NextPC returns the address of the instruction retired after the i-th:
// the next entry's PC, or End for the last entry.
func (t *Trace) NextPC(i int) uint64 {
	if i+1 < len(t.idx) {
		return t.PC(i + 1)
	}
	return t.End
}

// Inst returns the i-th dynamic instruction's static instruction.
func (t *Trace) Inst(i int) isa.Inst { return t.Prog.Insts[t.idx[i]] }

// Mix summarizes the dynamic instruction mix of a trace; the workload
// tests use it to verify SPEC95-like characteristics.
type Mix struct {
	Total       int
	Branches    int
	TakenBr     int
	Jumps       int
	Loads       int
	Stores      int
	FPArith     int
	IntArith    int
	IntWriters  int // instructions producing an integer register
	FPWriters   int // instructions producing an FP register
	BranchEvery float64
}

// DynamicMix computes the dynamic instruction mix.
func (t *Trace) DynamicMix() Mix {
	var m Mix
	m.Total = len(t.idx)
	for i, idx := range t.idx {
		in := t.Prog.Insts[idx]
		switch {
		case in.IsBranch():
			m.Branches++
			if t.Taken(i) {
				m.TakenBr++
			}
		case in.IsJump():
			m.Jumps++
		case in.IsLoad():
			m.Loads++
		case in.IsStore():
			m.Stores++
		case in.FU() == isa.FUIntALU || in.FU() == isa.FUIntMul:
			m.IntArith++
		default:
			m.FPArith++
		}
		if in.HasDst() {
			if in.DstClass() == isa.ClassInt {
				m.IntWriters++
			} else {
				m.FPWriters++
			}
		}
	}
	if m.Branches > 0 {
		m.BranchEvery = float64(m.Total) / float64(m.Branches)
	}
	return m
}

// String formats the mix for reports.
func (m Mix) String() string {
	pc := func(n int) float64 {
		if m.Total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(m.Total)
	}
	return fmt.Sprintf("total=%d br=%.1f%% (taken %.1f%%) ld=%.1f%% st=%.1f%% fp=%.1f%% int=%.1f%%",
		m.Total, pc(m.Branches), pc(m.TakenBr), pc(m.Loads), pc(m.Stores), pc(m.FPArith), pc(m.IntArith))
}
