package emu

import (
	"errors"
	"fmt"
	"testing"

	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
)

// buildFuzzProgram interprets the fuzz input as a little code-generator
// bytecode over program.Builder: every 3-byte chunk selects one
// instruction template with masked registers, immediates and offsets.
// Control flow is forward-only (conditional skips), so every generated
// program is structurally valid AND terminates — the emulator contract
// under test is purely "execute to HALT or fail cleanly", not input
// hygiene.
func buildFuzzProgram(data []byte) *program.Program {
	b := program.NewBuilder("fuzz")
	b.Words("w", 3, 1, 4, 1, 5, 9, 2, 6)
	b.Doubles("d", 0.5, -1.5, 2.25, 1e10)
	b.Space("buf", 4096)

	// r1..r8 / f1..f8 are the working registers; r10 is the data base.
	reg := func(x byte) isa.Reg { return isa.Reg(1 + int(x)%8) }
	b.La(10, "buf")
	for i := 1; i <= 8; i++ {
		b.Li(isa.Reg(i), int64(i*2654435761))
		b.Cvtif(isa.Reg(i), isa.Reg(i))
	}

	// Cap the generated program: the interesting space is instruction
	// interactions, not length, and bounded programs keep fuzz
	// throughput high.
	if len(data) > 3072 {
		data = data[:3072]
	}
	nextLabel := 0
	var pending []string // forward branches awaiting their target label
	for i := 0; i+2 < len(data); i += 3 {
		op, x, y := data[i], data[i+1], data[i+2]
		rd, rs1, rs2 := reg(op), reg(x), reg(y)
		off := int64(int(x)%500) * 8 // within buf
		switch op % 20 {
		case 0:
			b.Add(rd, rs1, rs2)
		case 1:
			b.Sub(rd, rs1, rs2)
		case 2:
			b.Mul(rd, rs1, rs2)
		case 3:
			b.Div(rd, rs1, rs2) // division by zero defined as 0
		case 4:
			b.Rem(rd, rs1, rs2)
		case 5:
			b.Xor(rd, rs1, rs2)
		case 6:
			b.Slt(rd, rs1, rs2)
		case 7:
			b.Addi(rd, rs1, int64(int8(y)))
		case 8:
			b.Slli(rd, rs1, int64(y%64))
		case 9:
			b.Srai(rd, rs1, int64(y%64))
		case 10:
			b.Fadd(rd, rs1, rs2)
		case 11:
			b.Fmul(rd, rs1, rs2)
		case 12:
			b.Fdiv(rd, rs1, rs2)
		case 13:
			b.Fsqrt(rd, rs1) // negative inputs produce NaN, not faults
		case 14:
			b.Ld(rd, 10, off)
		case 15:
			b.Sd(rs1, 10, off)
		case 16:
			b.Fld(rd, 10, off)
		case 17:
			b.Fsd(rs1, 10, off)
		case 18:
			b.Cvtfi(rd, rs1)
		case 19:
			// Conditional forward skip over the next template.
			l := fmt.Sprintf("L%d", nextLabel)
			nextLabel++
			pending = append(pending, l)
			b.Beq(rs1, rs2, l)
		}
		if op%20 != 19 && len(pending) > 0 {
			// Bind the pending skip targets after one real instruction.
			for _, l := range pending {
				b.Label(l)
			}
			pending = pending[:0]
		}
	}
	for _, l := range pending {
		b.Label(l)
	}
	b.Halt()

	p, err := b.Build()
	if err != nil {
		// The generator only emits valid constructs; a build error means
		// the generator itself is broken, which the fuzz driver reports.
		return nil
	}
	return p
}

// FuzzEmuTrace runs arbitrary valid programs: the emulator must either
// halt with a trace entry per retired instruction or fail with a clean
// error — and do so deterministically.
func FuzzEmuTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{19, 1, 1, 3, 0, 0, 13, 2, 2}) // taken skip, div, sqrt
	f.Add([]byte{14, 7, 7, 15, 3, 3, 16, 200, 0, 17, 9, 9})
	f.Add([]byte{8, 255, 63, 9, 0, 64, 2, 2, 2, 18, 4, 4})
	seed := make([]byte, 300)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := buildFuzzProgram(data)
		if p == nil {
			t.Fatal("generator emitted an invalid program")
		}
		m := New(p)
		tr, err := m.Run(1 << 20)
		if tr == nil {
			// Failures must still return the partial trace.
			t.Fatalf("error without partial trace: %v", err)
		}
		checkRunState(t, p, 1<<20, m, tr)
		if err != nil {
			var lim *ErrLimit
			if errors.As(err, &lim) {
				t.Fatalf("forward-only program hit the instruction budget: %v", err)
			}
			checkTraceReplay(t, p, tr)
			return
		}
		if !m.Halted {
			t.Fatal("Run returned without halting or erroring")
		}
		if uint64(tr.Len()) != m.ICount {
			t.Fatalf("trace has %d entries for %d retired instructions", tr.Len(), m.ICount)
		}
		checkTraceReplay(t, p, tr)
		// A budget of half the run cuts it with ErrLimit; the partial
		// trace must reconstruct the same prefix.
		if half := m.ICount / 2; half > 0 {
			part, err := New(p).Run(half)
			var lim *ErrLimit
			if !errors.As(err, &lim) || uint64(part.Len()) != half {
				t.Fatalf("Run(%d) = %d entries, %v; want ErrLimit", half, part.Len(), err)
			}
			checkTraceReplay(t, p, part)
			if part.Bytes() != exactBytes(part) {
				t.Fatalf("Run(%d): %d B for %d entries, %d B at exact size",
					half, part.Bytes(), part.Len(), exactBytes(part))
			}
		}
		// Determinism: a second machine retires the identical stream.
		m2 := New(buildFuzzProgram(data))
		if err := m2.RunQuiet(1 << 20); err != nil {
			t.Fatalf("second run failed: %v", err)
		}
		if m2.ICount != m.ICount || m2.Mem.Checksum() != m.Mem.Checksum() {
			t.Fatalf("nondeterministic execution: %d/%d insts, %x/%x checksums",
				m.ICount, m2.ICount, m.Mem.Checksum(), m2.Mem.Checksum())
		}
	})
}
