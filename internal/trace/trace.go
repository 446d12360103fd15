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

	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
)

// Entry is one dynamically executed (retired) instruction, as the
// emulator's Step returns it.
type Entry struct {
	EffAddr uint64 // effective address for memory operations
	Idx     uint32 // index of the instruction in Prog.Insts
	Taken   bool   // for control instructions: transfer taken
}

// Trace is a complete dynamic execution of a program. It stores only
// what the program cannot tell: one taken bit per entry, the effective
// address of every memory entry (zeros included), and the instruction
// index after every JALR that has a successor. Every other entry's
// instruction follows from its predecessor's: the fall-through, or the
// encoded target of a taken branch or JAL. A trace is therefore read
// forward, through a Cursor. The zero Trace is not usable; call New.
type Trace struct {
	Prog *program.Program
	End  uint64 // PC after the last entry, where the emulator stopped

	n       int
	first   uint32   // instruction index of entry 0
	taken   []uint64 // taken bit per entry, 64 entries per word
	addrs   []uint64 // effective address per memory entry
	targets []uint32 // instruction index after each JALR, but the last entry

	steps []step // per static instruction: how a cursor moves past it

	// Append's state: the index the next entry must have, unless the
	// last entry was a JALR, whose successor only the next entry tells.
	want   uint32
	jumped bool
}

// step is what a cursor needs to move past one static instruction.
type step struct {
	taken uint32 // instruction index after a taken transfer
	mem   bool   // the entry has an address in addrs
	jalr  bool   // the successor comes from targets
}

// Cursor is a position in a trace: the entry number, that entry's
// instruction index, and the positions of its address and target in
// their columns. It is a small value; saving it and assigning it back
// rewinds the trace with no scan.
type Cursor struct {
	i, idx, addr, tgt uint32
}

// Index returns the number of the entry at c.
func (c Cursor) Index() int { return int(c.i) }

// New returns an empty trace of p whose columns have room for exactly
// n entries, mem memory entries and jalrs JALR targets, so that
// appending that many leaves every column's capacity equal to its
// length.
func New(p *program.Program, n, mem, jalrs int) *Trace {
	t := &Trace{
		Prog:    p,
		taken:   make([]uint64, 0, (n+63)/64),
		addrs:   make([]uint64, 0, mem),
		targets: make([]uint32, 0, jalrs),
		steps:   make([]step, len(p.Insts)),
	}
	for i, in := range p.Insts {
		s := &t.steps[i]
		s.taken = uint32(i + 1)
		if in.IsBranch() || in.Op == isa.JAL {
			s.taken = uint32(int64(i) + 1 + in.Imm)
		}
		s.mem = in.IsMem()
		s.jalr = in.IsIndirect()
	}
	return t
}

// Append records e as the trace's next entry. It panics if e does not
// follow its predecessor, or if a non-memory entry carries an address:
// the emulator is the only producer, so either is an emulator bug.
func (t *Trace) Append(e Entry) {
	switch {
	case t.n == 0:
		t.first = e.Idx
	case t.jumped:
		t.targets = append(t.targets, e.Idx)
	case e.Idx != t.want:
		panic(fmt.Sprintf("trace: entry %d is instruction %d, but its predecessor leads to %d",
			t.n, e.Idx, t.want))
	}
	s := &t.steps[e.Idx]
	if t.n&63 == 0 {
		t.taken = append(t.taken, 0)
	}
	if e.Taken {
		t.taken[t.n>>6] |= 1 << (t.n & 63)
	}
	if s.mem {
		t.addrs = append(t.addrs, e.EffAddr)
	} else if e.EffAddr != 0 {
		panic(fmt.Sprintf("trace: entry %d (instruction %d) has address %#x but no memory access",
			t.n, e.Idx, e.EffAddr))
	}
	t.n++
	t.jumped = s.jalr
	t.want = e.Idx + 1
	if e.Taken {
		t.want = s.taken
	}
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return t.n }

// Start returns a cursor at the first entry.
func (t *Trace) Start() Cursor { return Cursor{idx: t.first} }

// Next returns the entry at c and advances c past it. c must be before
// the end of the trace.
func (t *Trace) Next(c *Cursor) Entry {
	s := &t.steps[c.idx]
	e := Entry{Idx: c.idx, Taken: t.taken[c.i>>6]>>(c.i&63)&1 != 0}
	if s.mem {
		e.EffAddr = t.addrs[c.addr]
		c.addr++
	}
	switch {
	case s.jalr:
		if int(c.tgt) < len(t.targets) {
			c.idx = t.targets[c.tgt]
		}
		c.tgt++
	case e.Taken:
		c.idx = s.taken
	default:
		c.idx++
	}
	c.i++
	return e
}

// PC returns the address of the entry at c, or End past the last
// entry.
func (t *Trace) PC(c Cursor) uint64 {
	if int(c.i) >= t.n {
		return t.End
	}
	return program.IndexToPC(int(c.idx))
}

// Bytes returns the heap bytes the trace's columns hold: their
// capacities times their element sizes.
func (t *Trace) Bytes() int64 {
	return 8*int64(cap(t.taken)+cap(t.addrs)) + 4*int64(cap(t.targets))
}

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
	m.Total = t.n
	for c := t.Start(); c.Index() < t.n; {
		e := t.Next(&c)
		in := t.Prog.Insts[e.Idx]
		switch {
		case in.IsBranch():
			m.Branches++
			if e.Taken {
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
