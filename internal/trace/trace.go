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

// Entry is one dynamically executed (retired) instruction, 16 bytes.
// The instruction itself and its address are functions of Idx, and the
// address of the next retired instruction is the next entry's, so
// neither is stored; Trace's accessors reconstruct them.
type Entry struct {
	EffAddr uint64 // effective address for memory operations
	Idx     uint32 // index of the instruction in Prog.Insts
	Taken   bool   // for control instructions: transfer taken
}

// Trace is a complete dynamic execution of a program.
type Trace struct {
	Prog    *program.Program
	Entries []Entry
	End     uint64 // PC after the last entry: NextPC of the last instruction
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Entries) }

// At returns the i-th dynamic instruction.
func (t *Trace) At(i int) *Entry { return &t.Entries[i] }

// PC returns the address of the i-th dynamic instruction.
func (t *Trace) PC(i int) uint64 { return program.IndexToPC(int(t.Entries[i].Idx)) }

// NextPC returns the address of the instruction retired after the i-th:
// the next entry's PC, or End for the last entry.
func (t *Trace) NextPC(i int) uint64 {
	if i+1 < len(t.Entries) {
		return t.PC(i + 1)
	}
	return t.End
}

// Inst returns the i-th dynamic instruction's static instruction.
func (t *Trace) Inst(i int) isa.Inst { return t.Prog.Insts[t.Entries[i].Idx] }

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
	m.Total = len(t.Entries)
	for i := range t.Entries {
		e := &t.Entries[i]
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
