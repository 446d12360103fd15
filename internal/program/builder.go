package program

import (
	"encoding/binary"
	"fmt"
	"math"

	"earlyrelease/internal/isa"
)

// Builder constructs programs instruction by instruction with symbolic
// labels, automatic branch-offset resolution and a data-segment
// allocator. It is the code generator used to write the workload kernels.
//
// The data segment is assembled once, by Build, at its final size:
// Words, Doubles and Bytes keep the caller's slice rather than a copy,
// so its contents must not change until Build returns.
//
// Errors are accumulated; Build reports the first one. This keeps kernel
// code free of per-emit error handling.
type Builder struct {
	name       string
	insts      []isa.Inst
	dataLen    int        // data segment length so far
	parts      []dataPart // initialized allocations, encoded by Build
	textLabels map[string]int
	dataLabels map[string]uint64
	fixups     []fixup
	errs       []error
}

// dataPart is one initialized allocation: its offset in the data
// segment and the caller's []int64, []float64 or []byte.
type dataPart struct {
	off  int
	vals any
}

type fixup struct {
	index int    // instruction to patch
	label string // target text label
}

// NewBuilder returns an empty builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:       name,
		textLabels: make(map[string]int),
		dataLabels: make(map[string]uint64),
	}
}

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("program %q: %s", b.name, fmt.Sprintf(format, args...)))
}

// Pos returns the index of the next instruction to be emitted.
func (b *Builder) Pos() int { return len(b.insts) }

// Label binds a text label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.textLabels[name]; dup {
		b.errorf("duplicate label %q", name)
		return
	}
	b.textLabels[name] = len(b.insts)
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) {
	b.insts = append(b.insts, in)
}

// --- data segment -----------------------------------------------------

// place allocates size bytes of named storage at the end of the data
// segment, aligned to align bytes, and records vals (nil for zeroed
// storage) for Build to encode there.
func (b *Builder) place(name string, align, size int, vals any) uint64 {
	off := (b.dataLen + align - 1) / align * align
	if vals != nil {
		b.parts = append(b.parts, dataPart{off: off, vals: vals})
	}
	b.dataLen = off + size
	b.bindData(name, DataBase+uint64(off))
	return DataBase + uint64(off)
}

// Words allocates named storage holding the given 64-bit values and
// returns its address. values must not change until Build.
func (b *Builder) Words(name string, values ...int64) uint64 {
	return b.place(name, 8, 8*len(values), values)
}

// Doubles allocates named storage holding float64 values. values must
// not change until Build.
func (b *Builder) Doubles(name string, values ...float64) uint64 {
	return b.place(name, 8, 8*len(values), values)
}

// Space allocates n zeroed bytes of named storage.
func (b *Builder) Space(name string, n int) uint64 {
	if n < 0 {
		b.errorf("negative space %d for %q", n, name)
	}
	return b.place(name, 8, max(n, 0), nil)
}

// Bytes allocates named storage with explicit byte contents. raw must
// not change until Build.
func (b *Builder) Bytes(name string, raw []byte) uint64 {
	return b.place(name, 1, len(raw), raw)
}

func (b *Builder) bindData(name string, addr uint64) {
	if name == "" {
		return
	}
	if _, dup := b.dataLabels[name]; dup {
		b.errorf("duplicate data label %q", name)
		return
	}
	b.dataLabels[name] = addr
}

// DataAddr returns the address of a previously allocated data label.
func (b *Builder) DataAddr(name string) uint64 {
	addr, ok := b.dataLabels[name]
	if !ok {
		b.errorf("unknown data label %q", name)
	}
	return addr
}

// --- integer ops ------------------------------------------------------

// r3 emits an R-format integer instruction.
func (b *Builder) r3(op isa.Opcode, rd, rs1, rs2 isa.Reg) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// imm emits an I-format integer instruction, checking range.
func (b *Builder) imm(op isa.Opcode, rd, rs1 isa.Reg, v int64) {
	if v < -(1<<15) || v >= 1<<15 {
		b.errorf("%v immediate %d out of range", op, v)
		v = 0
	}
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: v})
}

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 isa.Reg) { b.r3(isa.ADD, rd, rs1, rs2) }

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 isa.Reg) { b.r3(isa.SUB, rd, rs1, rs2) }

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 isa.Reg) { b.r3(isa.AND, rd, rs1, rs2) }

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 isa.Reg) { b.r3(isa.OR, rd, rs1, rs2) }

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 isa.Reg) { b.r3(isa.XOR, rd, rs1, rs2) }

// Slt emits rd = rs1 < rs2 (signed).
func (b *Builder) Slt(rd, rs1, rs2 isa.Reg) { b.r3(isa.SLT, rd, rs1, rs2) }

// Mul emits rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 isa.Reg) { b.r3(isa.MUL, rd, rs1, rs2) }

// Div emits rd = rs1 / rs2 (signed; division by zero yields 0).
func (b *Builder) Div(rd, rs1, rs2 isa.Reg) { b.r3(isa.DIV, rd, rs1, rs2) }

// Rem emits rd = rs1 % rs2 (signed; modulo by zero yields rs1).
func (b *Builder) Rem(rd, rs1, rs2 isa.Reg) { b.r3(isa.REM, rd, rs1, rs2) }

// Sllv emits rd = rs1 << rs2.
func (b *Builder) Sllv(rd, rs1, rs2 isa.Reg) { b.r3(isa.SLLV, rd, rs1, rs2) }

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 isa.Reg, v int64) { b.imm(isa.ADDI, rd, rs1, v) }

// Andi emits rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 isa.Reg, v int64) { b.imm(isa.ANDI, rd, rs1, v) }

// Ori emits rd = rs1 | imm.
func (b *Builder) Ori(rd, rs1 isa.Reg, v int64) { b.imm(isa.ORI, rd, rs1, v) }

// Xori emits rd = rs1 ^ imm.
func (b *Builder) Xori(rd, rs1 isa.Reg, v int64) { b.imm(isa.XORI, rd, rs1, v) }

// Slti emits rd = rs1 < imm.
func (b *Builder) Slti(rd, rs1 isa.Reg, v int64) { b.imm(isa.SLTI, rd, rs1, v) }

// Slli emits rd = rs1 << imm.
func (b *Builder) Slli(rd, rs1 isa.Reg, v int64) { b.imm(isa.SLLI, rd, rs1, v) }

// Srli emits rd = rs1 >> imm (logical).
func (b *Builder) Srli(rd, rs1 isa.Reg, v int64) { b.imm(isa.SRLI, rd, rs1, v) }

// Srai emits rd = rs1 >> imm (arithmetic).
func (b *Builder) Srai(rd, rs1 isa.Reg, v int64) { b.imm(isa.SRAI, rd, rs1, v) }

// Mov emits rd = rs.
func (b *Builder) Mov(rd, rs isa.Reg) { b.Addi(rd, rs, 0) }

// oriU16 emits an ORI whose 16-bit immediate field is interpreted as
// unsigned (the architecture zero-extends logical immediates, as MIPS
// does). The Inst carries the sign-extended field value so the binary
// encoding round-trips.
func (b *Builder) oriU16(rd, rs1 isa.Reg, chunk uint16) {
	b.Emit(isa.Inst{Op: isa.ORI, Rd: rd, Rs1: rs1, Imm: int64(int16(chunk))})
}

// Li loads an arbitrary 64-bit constant: one ADDI for small values,
// otherwise a chain of ORI/SLLI over 16-bit chunks (at most 7
// instructions for a full 64-bit pattern).
func (b *Builder) Li(rd isa.Reg, v int64) {
	if v >= -(1<<15) && v < 1<<15 {
		b.Addi(rd, isa.Zero, v)
		return
	}
	u := uint64(v)
	started := false
	for shift := 48; shift >= 0; shift -= 16 {
		chunk := uint16(u >> uint(shift))
		switch {
		case started:
			b.Slli(rd, rd, 16)
			if chunk != 0 {
				b.oriU16(rd, rd, chunk)
			}
		case chunk != 0:
			b.oriU16(rd, isa.Zero, chunk)
			started = true
		}
	}
}

// La loads the address of a data label.
func (b *Builder) La(rd isa.Reg, label string) { b.Li(rd, int64(b.DataAddr(label))) }

// --- memory -----------------------------------------------------------

// Ld emits rd = mem64[base+off].
func (b *Builder) Ld(rd, base isa.Reg, off int64) { b.imm(isa.LD, rd, base, off) }

// Lw emits rd = mem32[base+off] (sign-extended).
func (b *Builder) Lw(rd, base isa.Reg, off int64) { b.imm(isa.LW, rd, base, off) }

// Lb emits rd = mem8[base+off] (sign-extended).
func (b *Builder) Lb(rd, base isa.Reg, off int64) { b.imm(isa.LB, rd, base, off) }

// Sd emits mem64[base+off] = rs.
func (b *Builder) Sd(rs, base isa.Reg, off int64) {
	if off < -(1<<15) || off >= 1<<15 {
		b.errorf("sd offset %d out of range", off)
		off = 0
	}
	b.Emit(isa.Inst{Op: isa.SD, Rs1: base, Rs2: rs, Imm: off})
}

// Sw emits mem32[base+off] = rs.
func (b *Builder) Sw(rs, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.SW, Rs1: base, Rs2: rs, Imm: off})
}

// Sb emits mem8[base+off] = rs.
func (b *Builder) Sb(rs, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.SB, Rs1: base, Rs2: rs, Imm: off})
}

// Fld emits fd = mem64[base+off] as a double.
func (b *Builder) Fld(fd, base isa.Reg, off int64) { b.imm(isa.FLD, fd, base, off) }

// Fsd emits mem64[base+off] = fs.
func (b *Builder) Fsd(fs, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.FSD, Rs1: base, Rs2: fs, Imm: off})
}

// --- floating point ---------------------------------------------------

// Fadd emits fd = fs1 + fs2.
func (b *Builder) Fadd(fd, fs1, fs2 isa.Reg) { b.r3(isa.FADD, fd, fs1, fs2) }

// Fsub emits fd = fs1 - fs2.
func (b *Builder) Fsub(fd, fs1, fs2 isa.Reg) { b.r3(isa.FSUB, fd, fs1, fs2) }

// Fmul emits fd = fs1 * fs2.
func (b *Builder) Fmul(fd, fs1, fs2 isa.Reg) { b.r3(isa.FMUL, fd, fs1, fs2) }

// Fdiv emits fd = fs1 / fs2.
func (b *Builder) Fdiv(fd, fs1, fs2 isa.Reg) { b.r3(isa.FDIV, fd, fs1, fs2) }

// Fsqrt emits fd = sqrt(fs1).
func (b *Builder) Fsqrt(fd, fs1 isa.Reg) { b.r3(isa.FSQRT, fd, fs1, 0) }

// Fmov emits fd = fs1.
func (b *Builder) Fmov(fd, fs1 isa.Reg) { b.r3(isa.FMOV, fd, fs1, 0) }

// Fneg emits fd = -fs1.
func (b *Builder) Fneg(fd, fs1 isa.Reg) { b.r3(isa.FNEG, fd, fs1, 0) }

// Fabs emits fd = |fs1|.
func (b *Builder) Fabs(fd, fs1 isa.Reg) { b.r3(isa.FABS, fd, fs1, 0) }

// Mff emits rd = raw bits of fs1.
func (b *Builder) Mff(rd, fs1 isa.Reg) { b.r3(isa.MFF, rd, fs1, 0) }

// Mtf emits fd = value with raw bits rs1.
func (b *Builder) Mtf(fd, rs1 isa.Reg) { b.r3(isa.MTF, fd, rs1, 0) }

// Flt emits rd = fs1 < fs2.
func (b *Builder) Flt(rd, fs1, fs2 isa.Reg) { b.r3(isa.FLT, rd, fs1, fs2) }

// Fle emits rd = fs1 <= fs2.
func (b *Builder) Fle(rd, fs1, fs2 isa.Reg) { b.r3(isa.FLE, rd, fs1, fs2) }

// Cvtif emits fd = float64(rs1).
func (b *Builder) Cvtif(fd, rs1 isa.Reg) { b.r3(isa.CVTIF, fd, rs1, 0) }

// Cvtfi emits rd = int64(fs1).
func (b *Builder) Cvtfi(rd, fs1 isa.Reg) { b.r3(isa.CVTFI, rd, fs1, 0) }

// --- control ----------------------------------------------------------

// branch emits a conditional branch to a label (offset patched at Build).
func (b *Builder) branch(op isa.Opcode, rs1, rs2 isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.insts), label: label})
	b.Emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

// Beq branches to label when rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 isa.Reg, label string) { b.branch(isa.BEQ, rs1, rs2, label) }

// Bne branches to label when rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 isa.Reg, label string) { b.branch(isa.BNE, rs1, rs2, label) }

// Blt branches to label when rs1 < rs2 (signed).
func (b *Builder) Blt(rs1, rs2 isa.Reg, label string) { b.branch(isa.BLT, rs1, rs2, label) }

// Bge branches to label when rs1 >= rs2 (signed).
func (b *Builder) Bge(rs1, rs2 isa.Reg, label string) { b.branch(isa.BGE, rs1, rs2, label) }

// BranchRaw emits any conditional-branch opcode targeting a label; used
// by the assembler for the less common comparison variants.
func (b *Builder) BranchRaw(op isa.Opcode, rs1, rs2 isa.Reg, label string) {
	b.branch(op, rs1, rs2, label)
}

// JalRaw emits a JAL linking into an arbitrary register.
func (b *Builder) JalRaw(rd isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.insts), label: label})
	b.Emit(isa.Inst{Op: isa.JAL, Rd: rd})
}

// Beqz branches to label when rs == 0.
func (b *Builder) Beqz(rs isa.Reg, label string) { b.Beq(rs, isa.Zero, label) }

// Bnez branches to label when rs != 0.
func (b *Builder) Bnez(rs isa.Reg, label string) { b.Bne(rs, isa.Zero, label) }

// J jumps unconditionally to label (JAL with discarded link).
func (b *Builder) J(label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.insts), label: label})
	b.Emit(isa.Inst{Op: isa.JAL, Rd: isa.Zero})
}

// Call jumps to label and stores the return address in RA.
func (b *Builder) Call(label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.insts), label: label})
	b.Emit(isa.Inst{Op: isa.JAL, Rd: isa.RA})
}

// Ret returns through RA.
func (b *Builder) Ret() { b.Emit(isa.Inst{Op: isa.JALR, Rd: isa.Zero, Rs1: isa.RA}) }

// Jalr emits an indirect call through rs, linking into rd.
func (b *Builder) Jalr(rd, rs isa.Reg) { b.Emit(isa.Inst{Op: isa.JALR, Rd: rd, Rs1: rs}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.NOP}) }

// Halt emits the machine-stop instruction.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.HALT}) }

// --- stack helpers ----------------------------------------------------

// Prologue reserves n bytes of stack and saves RA at sp[0].
func (b *Builder) Prologue(n int64) {
	b.Addi(isa.SP, isa.SP, -n)
	b.Sd(isa.RA, isa.SP, 0)
}

// Epilogue restores RA, releases n bytes of stack and returns.
func (b *Builder) Epilogue(n int64) {
	b.Ld(isa.RA, isa.SP, 0)
	b.Addi(isa.SP, isa.SP, n)
	b.Ret()
}

// --- build ------------------------------------------------------------

// Build resolves all label references and returns the finished program.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		tgt, ok := b.textLabels[f.label]
		if !ok {
			b.errorf("undefined label %q", f.label)
			continue
		}
		off := int64(tgt - (f.index + 1))
		in := &b.insts[f.index]
		if in.Op == isa.JAL {
			if off < -(1<<20) || off >= 1<<20 {
				b.errorf("jump to %q out of range (%d)", f.label, off)
			}
		} else if off < -(1<<15) || off >= 1<<15 {
			b.errorf("branch to %q out of range (%d)", f.label, off)
		}
		in.Imm = off
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	labels := make(map[string]uint64, len(b.textLabels)+len(b.dataLabels))
	for name, idx := range b.textLabels {
		labels[name] = IndexToPC(idx)
	}
	for name, addr := range b.dataLabels {
		labels[name] = addr
	}
	p := &Program{
		Name:   b.name,
		Insts:  b.insts,
		Data:   b.data(),
		Labels: labels,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// data encodes the data segment into one slice of its final length.
func (b *Builder) data() []byte {
	if b.dataLen == 0 {
		return nil
	}
	data := make([]byte, b.dataLen)
	for _, p := range b.parts {
		switch v := p.vals.(type) {
		case []int64:
			for i, w := range v {
				binary.LittleEndian.PutUint64(data[p.off+8*i:], uint64(w))
			}
		case []float64:
			for i, f := range v {
				binary.LittleEndian.PutUint64(data[p.off+8*i:], math.Float64bits(f))
			}
		case []byte:
			copy(data[p.off:], v)
		}
	}
	return data
}

// MustBuild is Build that panics on error; for tests and fixed kernels.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
