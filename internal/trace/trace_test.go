package trace

import (
	"strings"
	"testing"

	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
)

func TestDynamicMix(t *testing.T) {
	prog := &program.Program{Insts: []isa.Inst{
		{Op: isa.ADD, Rd: 1},
		{Op: isa.FADD, Rd: 1},
		{Op: isa.LD, Rd: 2},
		{Op: isa.SD},
		{Op: isa.BEQ},
		{Op: isa.BNE},
		{Op: isa.JAL, Rd: 31},
	}}
	tr := &Trace{Prog: prog, Entries: []Entry{
		{Idx: 0}, {Idx: 1}, {Idx: 2}, {Idx: 3}, {Idx: 4, Taken: true}, {Idx: 5}, {Idx: 6},
	}}
	m := tr.DynamicMix()
	if m.Total != 7 || m.Branches != 2 || m.TakenBr != 1 || m.Jumps != 1 {
		t.Errorf("mix = %+v", m)
	}
	if m.Loads != 1 || m.Stores != 1 || m.FPArith != 1 || m.IntArith != 1 {
		t.Errorf("mix ops = %+v", m)
	}
	if m.IntWriters != 3 || m.FPWriters != 1 { // add, ld, jal / fadd
		t.Errorf("writers = %d/%d", m.IntWriters, m.FPWriters)
	}
	if m.BranchEvery != 3.5 {
		t.Errorf("branch every = %v", m.BranchEvery)
	}
	if !strings.Contains(m.String(), "total=7") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestAccessors(t *testing.T) {
	prog := &program.Program{Insts: []isa.Inst{{Op: isa.NOP}, {Op: isa.ADD, Rd: 3}, {Op: isa.HALT}}}
	tr := &Trace{Prog: prog, Entries: []Entry{{Idx: 1}, {Idx: 2}}, End: 0x100c}
	if tr.Len() != 2 || tr.At(1).Idx != 2 {
		t.Errorf("Len/At broken")
	}
	if tr.PC(0) != 0x1004 || tr.PC(1) != 0x1008 {
		t.Errorf("PC = %#x, %#x", tr.PC(0), tr.PC(1))
	}
	if tr.NextPC(0) != 0x1008 || tr.NextPC(1) != tr.End {
		t.Errorf("NextPC = %#x, %#x", tr.NextPC(0), tr.NextPC(1))
	}
	if tr.Inst(0).Op != isa.ADD || tr.Inst(1).Op != isa.HALT {
		t.Errorf("Inst = %v, %v", tr.Inst(0), tr.Inst(1))
	}
}
