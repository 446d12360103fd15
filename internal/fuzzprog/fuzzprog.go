// Package fuzzprog turns fuzz input into valid, terminating programs,
// for the fuzz targets of the emulator, the trace and (later) the
// pipeline.
package fuzzprog

import (
	"fmt"

	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
)

// leaves is the number of leaf subroutines a program can call.
const leaves = 4

// Build interprets data as a little code-generator bytecode over
// program.Builder: every 3-byte chunk selects one instruction template
// with masked registers, immediates and offsets. Control flow is
// forward conditional skips and calls to leaf subroutines placed after
// the HALT, which return through JALR, so every generated program is
// structurally valid AND terminates. Build returns nil only if the
// generator itself emits an invalid construct.
func Build(data []byte) *program.Program {
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
		switch op % 21 {
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
		case 20:
			b.Call(leaf(int(y)))
		}
		if op%21 != 19 && len(pending) > 0 {
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

	// The leaves touch memory, branch and return; none calls, so the
	// return address survives in RA.
	for k := 0; k < leaves; k++ {
		b.Label(leaf(k))
		switch k {
		case 0:
			b.Ld(1, 10, 8)
			b.Addi(1, 1, 1)
		case 1:
			b.Sd(2, 10, 16)
			b.Beq(2, 3, "leaf1.out")
			b.Add(3, 3, 2)
			b.Label("leaf1.out")
		case 2:
			b.Fld(4, 10, 24)
			b.Fadd(4, 4, 5)
			b.Fsd(4, 10, 24)
		}
		b.Ret() // leaf 3 returns at once: a JALR right after the JAL
	}

	p, err := b.Build()
	if err != nil {
		return nil
	}
	return p
}

func leaf(k int) string { return fmt.Sprintf("leaf%d", k%leaves) }
