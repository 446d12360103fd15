package trace

import (
	"math/rand"
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

func TestAccessors(t *testing.T) {
	prog := &program.Program{Insts: []isa.Inst{{Op: isa.NOP}, {Op: isa.ADD, Rd: 3}, {Op: isa.HALT}}}
	tr := build(prog, []Entry{{Idx: 1}, {Idx: 2}})
	tr.End = 0x100c
	if tr.Len() != 2 || tr.At(1).Idx != 2 || tr.Idx(0) != 1 {
		t.Errorf("Len/At/Idx broken")
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

// build appends es to a trace sized for them by New.
func build(p *program.Program, es []Entry) *Trace {
	addrs := 0
	for _, e := range es {
		if e.EffAddr != 0 {
			addrs++
		}
	}
	tr := New(p, len(es), addrs)
	for _, e := range es {
		tr.Append(e)
	}
	return tr
}

// FuzzTraceColumns appends a seeded stream of n entries, each with a
// nonzero address with probability density/256, and reads every entry
// back through At and the column accessors. The seeds cover the empty
// trace, all-zero and all-nonzero address runs, and lengths on each
// side of the 64-entry word boundaries. A trace sized by New holds
// exactly its columns' lengths; one grown from the zero Trace reads
// back the same.
func FuzzTraceColumns(f *testing.F) {
	for _, n := range []uint16{0, 1, 63, 64, 65, 127, 128, 129, 200} {
		for _, density := range []uint8{0, 64, 255} {
			f.Add(n, density, uint64(n)*31+uint64(density))
		}
	}
	f.Fuzz(func(t *testing.T, n uint16, density uint8, seed uint64) {
		n %= 4096
		rng := rand.New(rand.NewSource(int64(seed)))
		es := make([]Entry, n)
		addrs := 0
		for i := range es {
			es[i] = Entry{Idx: rng.Uint32(), Taken: rng.Intn(2) == 1}
			if rng.Intn(256) < int(density) {
				es[i].EffAddr = rng.Uint64() | 1
				addrs++
			}
		}
		tr := build(nil, es)
		var grown Trace
		for _, e := range es {
			grown.Append(e)
		}
		if tr.Len() != len(es) || grown.Len() != len(es) {
			t.Fatalf("Len = %d, %d; want %d", tr.Len(), grown.Len(), len(es))
		}
		for i, e := range es {
			if got := tr.At(i); got != e {
				t.Fatalf("At(%d) = %+v, appended %+v", i, got, e)
			}
			if got := grown.At(i); got != e {
				t.Fatalf("grown At(%d) = %+v, appended %+v", i, got, e)
			}
			if tr.Idx(i) != e.Idx || tr.Taken(i) != e.Taken || tr.EffAddr(i) != e.EffAddr {
				t.Fatalf("entry %d: Idx/Taken/EffAddr = %d/%v/%#x, appended %+v",
					i, tr.Idx(i), tr.Taken(i), tr.EffAddr(i), e)
			}
		}
		words := (int64(n) + 63) / 64
		if exact := 4*int64(n) + 20*words + 8*int64(addrs); tr.Bytes() != exact {
			t.Fatalf("%d entries, %d addresses hold %d B; %d B at exact size", n, addrs, tr.Bytes(), exact)
		}
	})
}
