// Package emu implements the functional (architectural) emulator for the
// ISA in package isa. It plays the role SimpleScalar's functional core
// plays for sim-outorder: it executes a program to completion and records
// the dynamic trace that drives the cycle-level timing simulator.
package emu

import (
	"fmt"
	"math"

	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
	"earlyrelease/internal/trace"
)

// Machine is a functional processor: architectural registers, memory and
// a program counter. The zero Machine is not usable; call New.
type Machine struct {
	Prog *program.Program
	Mem  *Memory

	IntR [isa.NumLogical]uint64
	FPR  [isa.NumLogical]float64

	PC     uint64
	Halted bool
	ICount uint64
}

// New loads the program into a fresh machine: the data segment at
// DataBase, read in place and never written (Memory), PC at the entry
// point, SP at the top of the stack.
func New(p *program.Program) *Machine {
	m := &Machine{Prog: p, Mem: NewMemory(program.DataBase, p.Data), PC: p.Entry()}
	m.IntR[isa.SP] = program.StackBase
	m.IntR[isa.GP] = program.DataBase
	return m
}

// ErrLimit is returned by Run when the instruction budget is exhausted
// before the program halts.
type ErrLimit struct{ Executed uint64 }

func (e *ErrLimit) Error() string {
	return fmt.Sprintf("emu: instruction limit reached after %d instructions", e.Executed)
}

// Run executes until HALT or until maxInsts instructions have retired,
// recording the dynamic trace. It returns ErrLimit if the budget is
// exhausted, or the fault that stopped execution; the partial trace is
// still returned either way. Run first executes a clone of the machine
// through a trace.Sizer, which measures every column, then records
// into columns of exactly those sizes (trace.New), so every column's
// capacity equals its length and the trace is never copied to grow.
// The clone shares the program's data segment and copies no page until
// it writes one; those pages are garbage once the sizes are known.
func (m *Machine) Run(maxInsts uint64) (*trace.Trace, error) {
	// The counting run meets the same ErrLimit or fault as the
	// recording run below.
	var sz trace.Sizer
	_ = m.clone().each(maxInsts, func(e trace.Entry) { sz.Add(m.Prog, e) })
	tr := trace.New(m.Prog, sz)
	err := m.each(maxInsts, tr.Append)
	tr.End = m.PC
	return tr, err
}

// clone returns an independent copy of the machine: registers, PC,
// counters and memory (Memory.clone). The program is shared; it is
// immutable.
func (m *Machine) clone() *Machine {
	c := *m
	c.Mem = m.Mem.clone()
	return &c
}

// RunQuiet executes without recording a trace (for checksum tests).
func (m *Machine) RunQuiet(maxInsts uint64) error {
	return m.each(maxInsts, func(trace.Entry) {})
}

// each executes until HALT or until maxInsts instructions have retired,
// passing every retired instruction's entry to f. It returns ErrLimit
// if the budget is exhausted, or the fault that stopped execution.
func (m *Machine) each(maxInsts uint64, f func(trace.Entry)) error {
	for !m.Halted {
		if maxInsts > 0 && m.ICount >= maxInsts {
			return &ErrLimit{Executed: m.ICount}
		}
		e, err := m.Step()
		if err != nil {
			return err
		}
		f(e)
	}
	return nil
}

// Step executes a single instruction and returns its trace entry.
func (m *Machine) Step() (trace.Entry, error) {
	idx, ok := m.Prog.PCToIndex(m.PC)
	if !ok {
		return trace.Entry{}, fmt.Errorf("emu: PC %#x outside text segment", m.PC)
	}
	in := m.Prog.Insts[idx]
	e := trace.Entry{Idx: uint32(idx)}
	next := m.PC + isa.InstBytes

	r := &m.IntR
	f := &m.FPR
	rs1 := r[in.Rs1]
	rs2 := r[in.Rs2]
	imm := in.Imm

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		m.Halted = true

	case isa.ADD:
		m.setInt(in.Rd, rs1+rs2)
	case isa.SUB:
		m.setInt(in.Rd, rs1-rs2)
	case isa.AND:
		m.setInt(in.Rd, rs1&rs2)
	case isa.OR:
		m.setInt(in.Rd, rs1|rs2)
	case isa.XOR:
		m.setInt(in.Rd, rs1^rs2)
	case isa.NOR:
		m.setInt(in.Rd, ^(rs1 | rs2))
	case isa.SLT:
		m.setInt(in.Rd, b2u(int64(rs1) < int64(rs2)))
	case isa.SLTU:
		m.setInt(in.Rd, b2u(rs1 < rs2))
	case isa.SLLV:
		m.setInt(in.Rd, rs1<<(rs2&63))
	case isa.SRLV:
		m.setInt(in.Rd, rs1>>(rs2&63))
	case isa.SRAV:
		m.setInt(in.Rd, uint64(int64(rs1)>>(rs2&63)))
	case isa.MUL:
		m.setInt(in.Rd, rs1*rs2)
	case isa.MULH:
		m.setInt(in.Rd, mulh(int64(rs1), int64(rs2)))
	case isa.DIV:
		if rs2 == 0 {
			m.setInt(in.Rd, 0)
		} else {
			m.setInt(in.Rd, uint64(int64(rs1)/int64(rs2)))
		}
	case isa.REM:
		if rs2 == 0 {
			m.setInt(in.Rd, rs1)
		} else {
			m.setInt(in.Rd, uint64(int64(rs1)%int64(rs2)))
		}

	case isa.ADDI:
		m.setInt(in.Rd, rs1+uint64(imm))
	case isa.ANDI:
		m.setInt(in.Rd, rs1&uint64(uint16(imm)))
	case isa.ORI:
		m.setInt(in.Rd, rs1|uint64(uint16(imm)))
	case isa.XORI:
		m.setInt(in.Rd, rs1^uint64(uint16(imm)))
	case isa.SLTI:
		m.setInt(in.Rd, b2u(int64(rs1) < imm))
	case isa.SLLI:
		m.setInt(in.Rd, rs1<<(uint64(imm)&63))
	case isa.SRLI:
		m.setInt(in.Rd, rs1>>(uint64(imm)&63))
	case isa.SRAI:
		m.setInt(in.Rd, uint64(int64(rs1)>>(uint64(imm)&63)))
	case isa.LUI:
		m.setInt(in.Rd, uint64(imm<<16))

	case isa.LB:
		e.EffAddr = rs1 + uint64(imm)
		m.setInt(in.Rd, uint64(int64(int8(m.Mem.Read(e.EffAddr, 1)))))
	case isa.LW:
		e.EffAddr = rs1 + uint64(imm)
		m.setInt(in.Rd, uint64(int64(int32(m.Mem.Read(e.EffAddr, 4)))))
	case isa.LD:
		e.EffAddr = rs1 + uint64(imm)
		m.setInt(in.Rd, m.Mem.Read(e.EffAddr, 8))
	case isa.SB:
		e.EffAddr = rs1 + uint64(imm)
		m.Mem.Write(e.EffAddr, 1, rs2)
	case isa.SW:
		e.EffAddr = rs1 + uint64(imm)
		m.Mem.Write(e.EffAddr, 4, rs2)
	case isa.SD:
		e.EffAddr = rs1 + uint64(imm)
		m.Mem.Write(e.EffAddr, 8, rs2)
	case isa.FLD:
		e.EffAddr = rs1 + uint64(imm)
		f[in.Rd] = math.Float64frombits(m.Mem.Read(e.EffAddr, 8))
	case isa.FSD:
		e.EffAddr = rs1 + uint64(imm)
		m.Mem.Write(e.EffAddr, 8, math.Float64bits(f[in.Rs2]))

	case isa.BEQ:
		e.Taken = rs1 == rs2
	case isa.BNE:
		e.Taken = rs1 != rs2
	case isa.BLT:
		e.Taken = int64(rs1) < int64(rs2)
	case isa.BGE:
		e.Taken = int64(rs1) >= int64(rs2)
	case isa.BLTU:
		e.Taken = rs1 < rs2
	case isa.BGEU:
		e.Taken = rs1 >= rs2

	case isa.JAL:
		m.setInt(in.Rd, next)
		e.Taken = true
		next += uint64(imm) * isa.InstBytes
	case isa.JALR:
		tgt := rs1
		m.setInt(in.Rd, next)
		e.Taken = true
		next = tgt

	case isa.FADD:
		f[in.Rd] = f[in.Rs1] + f[in.Rs2]
	case isa.FSUB:
		f[in.Rd] = f[in.Rs1] - f[in.Rs2]
	case isa.FMUL:
		f[in.Rd] = f[in.Rs1] * f[in.Rs2]
	case isa.FDIV:
		f[in.Rd] = f[in.Rs1] / f[in.Rs2]
	case isa.FSQRT:
		f[in.Rd] = math.Sqrt(f[in.Rs1])
	case isa.FMIN:
		f[in.Rd] = math.Min(f[in.Rs1], f[in.Rs2])
	case isa.FMAX:
		f[in.Rd] = math.Max(f[in.Rs1], f[in.Rs2])
	case isa.FNEG:
		f[in.Rd] = -f[in.Rs1]
	case isa.FABS:
		f[in.Rd] = math.Abs(f[in.Rs1])
	case isa.FMOV:
		f[in.Rd] = f[in.Rs1]

	case isa.FEQ:
		m.setInt(in.Rd, b2u(f[in.Rs1] == f[in.Rs2]))
	case isa.FLT:
		m.setInt(in.Rd, b2u(f[in.Rs1] < f[in.Rs2]))
	case isa.FLE:
		m.setInt(in.Rd, b2u(f[in.Rs1] <= f[in.Rs2]))

	case isa.CVTIF:
		f[in.Rd] = float64(int64(rs1))
	case isa.CVTFI:
		v := f[in.Rs1]
		if math.IsNaN(v) {
			m.setInt(in.Rd, 0)
		} else {
			m.setInt(in.Rd, uint64(int64(v)))
		}
	case isa.MTF:
		f[in.Rd] = math.Float64frombits(rs1)
	case isa.MFF:
		m.setInt(in.Rd, math.Float64bits(f[in.Rs1]))

	default:
		return trace.Entry{}, fmt.Errorf("emu: unimplemented opcode %v at PC %#x", in.Op, m.PC)
	}

	if in.IsBranch() && e.Taken {
		next = m.PC + isa.InstBytes + uint64(imm)*isa.InstBytes
	}
	m.PC = next
	m.ICount++
	return e, nil
}

// setInt writes an integer register, discarding writes to r0.
func (m *Machine) setInt(rd isa.Reg, v uint64) {
	if rd != isa.Zero {
		m.IntR[rd] = v
	}
}

// Checksum summarizes the architectural state (registers + dirty memory)
// for determinism tests.
func (m *Machine) Checksum() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range m.IntR {
		h = (h ^ v) * prime
	}
	for _, v := range m.FPR {
		h = (h ^ math.Float64bits(v)) * prime
	}
	return h ^ m.Mem.Checksum()
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func mulh(a, b int64) uint64 {
	// 128-bit signed multiply, high half.
	neg := (a < 0) != (b < 0)
	ua, ub := uint64(abs64(a)), uint64(abs64(b))
	hi, lo := mul64(ua, ub)
	if neg {
		// two's complement negate the 128-bit product
		lo = ^lo + 1
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return hi
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}
