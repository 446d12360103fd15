package emu

import (
	"math"
	"testing"
	"testing/quick"

	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
	"earlyrelease/internal/trace"
)

// run builds a tiny program with the builder, executes it and returns the
// machine for state inspection.
func run(t *testing.T, build func(b *program.Builder)) *Machine {
	t.Helper()
	b := program.NewBuilder("t")
	build(b)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := New(p)
	if err := m.RunQuiet(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestArithmetic(t *testing.T) {
	m := run(t, func(b *program.Builder) {
		b.Li(1, 7)
		b.Li(2, -3)
		b.Add(3, 1, 2)  // 4
		b.Sub(4, 1, 2)  // 10
		b.Mul(5, 1, 2)  // -21
		b.Div(6, 5, 1)  // -3
		b.Rem(7, 1, 1)  // 0
		b.Slt(8, 2, 1)  // 1
		b.Xor(9, 1, 1)  // 0
		b.And(10, 1, 2) // 7 & -3 = 5
	})
	want := map[int]int64{3: 4, 4: 10, 5: -21, 6: -3, 7: 0, 8: 1, 9: 0, 10: 5}
	for r, v := range want {
		if got := int64(m.IntR[r]); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestDivRemByZero(t *testing.T) {
	m := run(t, func(b *program.Builder) {
		b.Li(1, 42)
		b.Div(2, 1, isa.Zero) // 0
		b.Rem(3, 1, isa.Zero) // 42
	})
	if m.IntR[2] != 0 {
		t.Errorf("div by zero = %d, want 0", m.IntR[2])
	}
	if m.IntR[3] != 42 {
		t.Errorf("rem by zero = %d, want 42", m.IntR[3])
	}
}

func TestLiRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		b := program.NewBuilder("li")
		b.Li(1, v)
		b.Halt()
		p, err := b.Build()
		if err != nil {
			return false
		}
		m := New(p)
		if err := m.RunQuiet(100); err != nil {
			return false
		}
		return int64(m.IntR[1]) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, v := range []int64{0, 1, -1, 32767, -32768, 32768, 65536, -65536,
		int64(program.DataBase), math.MaxInt64, math.MinInt64, 0xDEADBEEF} {
		if !f(v) {
			t.Errorf("Li(%d) did not round trip", v)
		}
	}
}

func TestMemoryOps(t *testing.T) {
	m := run(t, func(b *program.Builder) {
		b.Words("buf", 0, 0, 0)
		b.La(1, "buf")
		b.Li(2, 0x1122334455667788)
		b.Sd(2, 1, 0)
		b.Ld(3, 1, 0)  // full word
		b.Lw(4, 1, 0)  // 0x55667788
		b.Lb(5, 1, 0)  // 0x88 sign-extended = -120
		b.Sw(2, 1, 8)  // low 32 bits
		b.Ld(6, 1, 8)  // 0x55667788
		b.Sb(2, 1, 16) // low byte
		b.Ld(7, 1, 16) // 0x88
	})
	if m.IntR[3] != 0x1122334455667788 {
		t.Errorf("ld = %#x", m.IntR[3])
	}
	if int64(m.IntR[4]) != 0x55667788 {
		t.Errorf("lw = %#x", m.IntR[4])
	}
	if int64(m.IntR[5]) != -120 {
		t.Errorf("lb = %d, want -120", int64(m.IntR[5]))
	}
	if m.IntR[6] != 0x55667788 {
		t.Errorf("sw/ld = %#x", m.IntR[6])
	}
	if m.IntR[7] != 0x88 {
		t.Errorf("sb/ld = %#x", m.IntR[7])
	}
}

func TestBranchesAndLoops(t *testing.T) {
	// sum 1..10 with a loop
	m := run(t, func(b *program.Builder) {
		b.Li(1, 0)  // sum
		b.Li(2, 1)  // i
		b.Li(3, 10) // n
		b.Label("loop")
		b.Add(1, 1, 2)
		b.Addi(2, 2, 1)
		b.Bge(3, 2, "loop")
	})
	if m.IntR[1] != 55 {
		t.Errorf("sum = %d, want 55", m.IntR[1])
	}
}

func TestCallRet(t *testing.T) {
	// function doubling r4, called twice
	m := run(t, func(b *program.Builder) {
		b.Li(4, 3)
		b.Call("double")
		b.Call("double")
		b.J("end")
		b.Label("double")
		b.Add(4, 4, 4)
		b.Ret()
		b.Label("end")
	})
	if m.IntR[4] != 12 {
		t.Errorf("r4 = %d, want 12", m.IntR[4])
	}
}

func TestRecursion(t *testing.T) {
	// factorial(10) via recursion with a real stack
	m := run(t, func(b *program.Builder) {
		b.Li(4, 10)
		b.Call("fact")
		b.J("end")

		b.Label("fact")
		b.Slti(5, 4, 2)
		b.Beqz(5, "rec")
		b.Li(2, 1)
		b.Ret()
		b.Label("rec")
		b.Prologue(16)
		b.Sd(4, isa.SP, 8)
		b.Addi(4, 4, -1)
		b.Call("fact")
		b.Ld(4, isa.SP, 8)
		b.Mul(2, 2, 4)
		b.Epilogue(16)

		b.Label("end")
	})
	if m.IntR[2] != 3628800 {
		t.Errorf("fact(10) = %d, want 3628800", m.IntR[2])
	}
}

func TestFloatingPoint(t *testing.T) {
	m := run(t, func(b *program.Builder) {
		b.Doubles("k", 2.5, 4.0)
		b.La(1, "k")
		b.Fld(1, 1, 0)
		b.La(2, "k")
		b.Fld(2, 2, 8)
		b.Fadd(3, 1, 2) // 6.5
		b.Fmul(4, 1, 2) // 10
		b.Fdiv(5, 2, 1) // 1.6
		b.Fsqrt(6, 2)   // 2
		b.Fsub(7, 1, 2) // -1.5
		b.Fneg(8, 7)    // 1.5
		b.Flt(9, 1, 2)  // 1
		b.Fle(10, 2, 1) // 0
		b.Cvtfi(11, 4)  // 10
		b.Li(12, 9)
		b.Cvtif(13, 12) // 9.0
	})
	checks := map[int]float64{3: 6.5, 4: 10, 5: 1.6, 6: 2, 7: -1.5, 8: 1.5, 13: 9}
	for r, v := range checks {
		if m.FPR[r] != v {
			t.Errorf("f%d = %v, want %v", r, m.FPR[r], v)
		}
	}
	if m.IntR[9] != 1 || m.IntR[10] != 0 || m.IntR[11] != 10 {
		t.Errorf("fp compares/convert: r9=%d r10=%d r11=%d", m.IntR[9], m.IntR[10], m.IntR[11])
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	m := run(t, func(b *program.Builder) {
		b.Li(1, 99)
		b.Add(0, 1, 1) // write to r0 discarded
		b.Add(2, 0, 0) // r2 = 0
	})
	if m.IntR[0] != 0 || m.IntR[2] != 0 {
		t.Errorf("r0 = %d, r2 = %d; want 0, 0", m.IntR[0], m.IntR[2])
	}
}

func TestTraceEntries(t *testing.T) {
	b := program.NewBuilder("t")
	b.Li(1, 2)
	b.Li(2, 5)
	b.Label("loop")
	b.Addi(1, 1, -1)
	b.Bnez(1, "loop")
	b.Words("x", 0)
	b.La(3, "x")
	b.Sd(2, 3, 0)
	b.Call("f")
	b.Halt()
	b.Label("f")
	b.Ret()
	p := b.MustBuild()
	m := New(p)
	tr, err := m.Run(0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkRunState(t, p, 0, m, tr)
	mix := tr.DynamicMix()
	if mix.Branches != 2 || mix.TakenBr != 1 {
		t.Errorf("branches = %d (taken %d), want 2 (1)", mix.Branches, mix.TakenBr)
	}
	if mix.Stores != 1 {
		t.Errorf("stores = %d, want 1", mix.Stores)
	}
	checkTraceReplay(t, p, tr)
	// Store entry must carry its effective address.
	var sawStore bool
	for c := tr.Start(); c.Index() < tr.Len(); {
		if e := tr.Next(&c); p.Insts[e.Idx].IsStore() {
			sawStore = true
			if e.EffAddr == 0 {
				t.Error("store entry missing effective address")
			}
		}
	}
	if !sawStore {
		t.Error("no store entry recorded")
	}

	// A budget cut leaves a partial trace that still reconstructs.
	m = New(p)
	part, err := m.Run(4)
	if _, ok := err.(*ErrLimit); !ok || part.Len() != 4 {
		t.Fatalf("Run(4) = %d entries, %v; want 4, ErrLimit", part.Len(), err)
	}
	checkRunState(t, p, 4, m, part)
	checkTraceReplay(t, p, part)
	// Running on from the cut records exactly the rest.
	rest, err := m.Run(0)
	if err != nil || rest.Len() != tr.Len()-4 || rest.Bytes() != exactBytes(rest) {
		t.Fatalf("Run(0) after Run(4) = %d entries (%d B, exact %d B), %v; want %d, no error",
			rest.Len(), rest.Bytes(), exactBytes(rest), err, tr.Len()-4)
	}
	checkRunState(t, p, 0, m, tr)

	// So does a trace cut by an emulation error: the jump leaves the
	// text segment, and End is the address it jumped to.
	b = program.NewBuilder("wild")
	b.Li(1, 0x40)
	b.Jalr(isa.Zero, 1)
	b.Halt()
	p = b.MustBuild()
	m = New(p)
	bad, err := m.Run(0)
	if err == nil || bad.End != 0x40 {
		t.Fatalf("wild jump: End = %#x, err = %v; want 0x40 and an error", bad.End, err)
	}
	checkRunState(t, p, 0, m, bad)
	checkTraceReplay(t, p, bad)
}

// TestRunCountsOnACopy runs a program that reads back what it wrote:
// Run's counting pass must leave the machine's memory untouched, or the
// recording pass would take the branch and record a different trace.
func TestRunCountsOnACopy(t *testing.T) {
	b := program.NewBuilder("rmw")
	flag := b.Words("flag", 0)
	b.La(3, "flag")
	b.Ld(1, 3, 0)
	b.Addi(2, 1, 1)
	b.Sd(2, 3, 0)
	b.Bnez(1, "out") // taken only if flag was already written
	b.Li(4, 7)
	b.Li(5, 9)
	b.Label("out")
	b.Halt()
	p := b.MustBuild()
	m := New(p)
	tr, err := m.Run(0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkRunState(t, p, 0, m, tr)
	checkTraceReplay(t, p, tr)
	if m.IntR[4] != 7 || m.Mem.Read(flag, 8) != 1 {
		t.Errorf("r4 = %d, flag = %d; want 7, 1", m.IntR[4], m.Mem.Read(flag, 8))
	}
}

// checkRunState asserts Run's allocation and state contract: tr's
// columns were allocated at exactly their lengths, and m, the machine
// Run was called on, stands where a plain Step loop over p with the
// same budget stops.
func checkRunState(t *testing.T, p *program.Program, maxInsts uint64, m *Machine, tr *trace.Trace) {
	t.Helper()
	if got, want := tr.Bytes(), exactBytes(tr); got != want {
		t.Errorf("trace of %d entries holds %d B, %d B at exact size", tr.Len(), got, want)
	}
	ref := New(p)
	for !ref.Halted && (maxInsts == 0 || ref.ICount < maxInsts) {
		if _, err := ref.Step(); err != nil {
			break
		}
	}
	if m.ICount != ref.ICount || m.Halted != ref.Halted || m.PC != ref.PC ||
		m.Mem.Checksum() != ref.Mem.Checksum() || m.Checksum() != ref.Checksum() {
		t.Errorf("after Run: icount %d halted %v pc %#x mem %x; Step loop: %d %v %#x %x",
			m.ICount, m.Halted, m.PC, m.Mem.Checksum(),
			ref.ICount, ref.Halted, ref.PC, ref.Mem.Checksum())
	}
}

// exactBytes is what tr's columns hold when each one's capacity equals
// its length: a taken bit per entry in 8-byte words, 8 bytes per
// memory entry and 4 per JALR that has a successor.
func exactBytes(tr *trace.Trace) int64 {
	var mem, jalrs int64
	jumped := false
	for c := tr.Start(); c.Index() < tr.Len(); {
		if jumped {
			jalrs++
		}
		in := tr.Prog.Insts[tr.Next(&c).Idx]
		if in.IsMem() {
			mem++
		}
		jumped = in.IsIndirect()
	}
	return 8*((int64(tr.Len())+63)/64) + 8*mem + 4*jalrs
}

// checkTraceReplay steps a fresh machine through p alongside a cursor
// over tr: every entry must match the step, tr.PC must be the PC before
// the step and, past it, the PC after (End past the last entry).
func checkTraceReplay(t *testing.T, p *program.Program, tr *trace.Trace) {
	t.Helper()
	m := New(p)
	for c := tr.Start(); c.Index() < tr.Len(); {
		i := c.Index()
		if got := tr.PC(c); got != m.PC {
			t.Fatalf("entry %d: PC = %#x, machine at %#x", i, got, m.PC)
		}
		e, err := m.Step()
		if err != nil {
			t.Fatalf("entry %d: replay step: %v", i, err)
		}
		if got := tr.Next(&c); got != e {
			t.Fatalf("entry %d: %+v, replay gives %+v", i, got, e)
		}
		if got := tr.PC(c); got != m.PC {
			t.Fatalf("entry %d: next PC = %#x, machine at %#x", i, got, m.PC)
		}
	}
	if tr.End != m.PC {
		t.Fatalf("End = %#x, machine at %#x", tr.End, m.PC)
	}
}

func TestRunLimit(t *testing.T) {
	b := program.NewBuilder("inf")
	b.Label("x")
	b.J("x")
	b.Halt()
	p := b.MustBuild()
	_, err := New(p).Run(1000)
	if _, ok := err.(*ErrLimit); !ok {
		t.Errorf("expected ErrLimit, got %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	b := program.NewBuilder("det")
	b.Li(1, 0x9E3779B9)
	b.Li(2, 0)
	b.Li(3, 200)
	b.Label("loop")
	b.Mul(1, 1, 1)
	b.Xori(1, 1, 0x55)
	b.Add(2, 2, 1)
	b.Addi(3, 3, -1)
	b.Bnez(3, "loop")
	b.Halt()
	p := b.MustBuild()
	m1, m2 := New(p), New(p)
	if err := m1.RunQuiet(0); err != nil {
		t.Fatal(err)
	}
	if err := m2.RunQuiet(0); err != nil {
		t.Fatal(err)
	}
	if m1.Checksum() != m2.Checksum() {
		t.Error("two runs of the same program produced different checksums")
	}
}

func TestMemoryPageCrossing(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3) // crosses the first page boundary
	m.Write(addr, 8, 0x0123456789ABCDEF)
	if got := m.Read(addr, 8); got != 0x0123456789ABCDEF {
		t.Errorf("page-crossing read = %#x", got)
	}
	if got := m.Read(addr+4, 4); got != 0x01234567 {
		t.Errorf("partial read = %#x", got)
	}
}

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.Read(0xDEAD0000, 8) != 0 {
		t.Error("unmapped memory should read as zero")
	}
}
