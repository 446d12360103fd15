package trace

import (
	"encoding/binary"
	"math"
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
	tr := build(prog, []Entry{
		{Idx: 0}, {Idx: 1}, {Idx: 2, EffAddr: 0x2000}, {Idx: 3, EffAddr: 0x2008},
		{Idx: 4, Taken: true}, {Idx: 5}, {Idx: 6, Taken: true},
	})
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

// TestAccessors reads a trace with a loop, a call and a return back
// through a cursor: every entry, the PC before and after it, and End
// past the last one; a saved cursor rewinds the walk.
func TestAccessors(t *testing.T) {
	prog := &program.Program{Insts: []isa.Inst{
		{Op: isa.LD, Rd: 1},               // 0
		{Op: isa.BNE, Rs1: 1, Imm: -2},    // 1: back to 0
		{Op: isa.JAL, Rd: isa.RA, Imm: 1}, // 2: call 4
		{Op: isa.HALT},                    // 3
		{Op: isa.JALR, Rs1: isa.RA},       // 4: return to 3
	}}
	es := []Entry{
		{Idx: 0, EffAddr: 0x2000}, {Idx: 1, Taken: true},
		{Idx: 0}, {Idx: 1},
		{Idx: 2, Taken: true}, {Idx: 4, Taken: true}, {Idx: 3},
	}
	tr := build(prog, es)
	tr.End = 0x1010
	if tr.Len() != len(es) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(es))
	}
	// 8 B of taken bits; the address deltas +0x2000 (3 B) and -0x2000
	// (2 B), the zero address too; one 4 B target.
	if tr.Bytes() != 8+3+2+4 {
		t.Errorf("Bytes = %d, want %d", tr.Bytes(), 8+3+2+4)
	}
	var mark Cursor
	for pass := 0; pass < 2; pass++ {
		c := tr.Start()
		if pass == 1 {
			c = mark
		}
		for c.Index() < tr.Len() {
			i := c.Index()
			if i == 2 {
				mark = c
			}
			if pc := tr.PC(c); pc != program.IndexToPC(int(es[i].Idx)) {
				t.Fatalf("pass %d entry %d: PC = %#x", pass, i, pc)
			}
			if e := tr.Next(&c); e != es[i] {
				t.Fatalf("pass %d entry %d = %+v, appended %+v", pass, i, e, es[i])
			}
		}
		if tr.PC(c) != tr.End {
			t.Errorf("PC past the end = %#x, want End %#x", tr.PC(c), tr.End)
		}
	}
}

// TestExtremeAddresses stores addresses whose deltas wrap (0 to
// MaxUint64 is a delta of -1), go backwards, and take the longest
// varint (a delta of 1<<63 takes 10 bytes). The trace holds exactly
// its columns, reads every address back, and a cursor saved at any
// entry, in the middle of the address stream too, rewinds to it.
func TestExtremeAddresses(t *testing.T) {
	prog := &program.Program{Insts: []isa.Inst{
		{Op: isa.LD, Rd: 1},            // 0
		{Op: isa.BNE, Rs1: 1, Imm: -2}, // 1: back to 0
		{Op: isa.HALT},                 // 2
	}}
	addrs := []uint64{
		0, math.MaxUint64, 0, 1 << 63, 0, 1 << 62, math.MaxUint64, 1 << 63,
		0x2000, 0x1000, 0x1000, 0xfff, math.MaxUint64 - 7, 8, 1<<63 - 1, 1 << 63,
	}
	var es []Entry
	var deltas int
	var buf [binary.MaxVarintLen64]byte
	prev, longest := uint64(0), 0
	for i, a := range addrs {
		es = append(es, Entry{Idx: 0, EffAddr: a}, Entry{Idx: 1, Taken: i+1 < len(addrs)})
		k := binary.PutVarint(buf[:], int64(a-prev))
		deltas, prev, longest = deltas+k, a, max(longest, k)
	}
	es = append(es, Entry{Idx: 2})
	if longest != binary.MaxVarintLen64 {
		t.Fatalf("longest delta takes %d B, want %d", longest, binary.MaxVarintLen64)
	}
	tr := build(prog, es)
	if want := int64(8 + deltas); tr.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", tr.Bytes(), want)
	}
	for mark := 0; mark < len(es); mark++ {
		var saved Cursor
		c := tr.Start()
		for pass := 0; pass < 2; pass++ {
			for c.Index() < tr.Len() {
				i := c.Index()
				if i == mark && pass == 0 {
					saved = c
				}
				if e := tr.Next(&c); e != es[i] {
					t.Fatalf("mark %d pass %d: entry %d = %+v, appended %+v", mark, pass, i, e, es[i])
				}
			}
			c = saved
		}
	}
}

// TestAppendRejectsAnUnfollowedEntry appends an entry its predecessor
// cannot lead to, and one that carries an address without a memory
// access: both are emulator bugs, and Append must panic.
func TestAppendRejectsAnUnfollowedEntry(t *testing.T) {
	prog := &program.Program{Insts: []isa.Inst{
		{Op: isa.ADD, Rd: 1}, {Op: isa.BEQ, Imm: 1}, {Op: isa.NOP}, {Op: isa.HALT},
	}}
	for name, es := range map[string][]Entry{
		"skips fall-through": {{Idx: 0}, {Idx: 2}},
		"ignores taken":      {{Idx: 1, Taken: true}, {Idx: 2}},
		"takes not-taken":    {{Idx: 1}, {Idx: 3}},
		"address on an ADD":  {{Idx: 0, EffAddr: 8}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Append did not panic", name)
				}
			}()
			build(prog, es)
		}()
	}
}

// build appends es to a trace sized for them by a Sizer.
func build(p *program.Program, es []Entry) *Trace {
	var sz Sizer
	for _, e := range es {
		sz.Add(p, e)
	}
	tr := New(p, sz)
	for _, e := range es {
		tr.Append(e)
	}
	return tr
}
