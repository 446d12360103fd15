package pipeline

import (
	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
	"earlyrelease/internal/trace"
)

// instMeta is the per-static-instruction predicate bundle the per-cycle
// stage loops consume instead of going back to the opcode tables. Fetch
// reads it from a Decoded table: a scalar core builds its own, and
// every lane of a batch shares one per trace.
type instMeta struct {
	flags    metaFlags
	fu       isa.FUKind
	dstClass isa.RegClass // class of the written register; ClassNone if none
	srcClass [2]isa.RegClass
}

type metaFlags uint16

const (
	mLoad metaFlags = 1 << iota
	mStore
	mMem
	mBranch
	mJAL      // Op == JAL: direct jump, target computed in the front end
	mIndirect // Op == JALR
	mCtrl
	mCall // jump writing the return-address register
	mHalt
	mHasDst // writes a register (integer zero-register writes excluded)
)

func (m *instMeta) is(f metaFlags) bool { return m.flags&f != 0 }

// decodeMeta computes the predicate bundle for one instruction. It must
// agree exactly with the isa predicate methods (pinned per opcode by
// TestDecodeMetaMatchesISA).
func decodeMeta(in isa.Inst) instMeta {
	var m instMeta
	if in.IsLoad() {
		m.flags |= mLoad | mMem
	}
	if in.IsStore() {
		m.flags |= mStore | mMem
	}
	if in.IsBranch() {
		m.flags |= mBranch
	}
	if in.Op == isa.JAL {
		m.flags |= mJAL
	}
	if in.IsIndirect() {
		m.flags |= mIndirect
	}
	if in.IsCtrl() {
		m.flags |= mCtrl
	}
	if in.IsJump() && in.Rd == isa.RA {
		m.flags |= mCall
	}
	if in.IsHalt() {
		m.flags |= mHalt
	}
	if in.HasDst() {
		m.flags |= mHasDst
		m.dstClass = in.DstClass()
	} else {
		m.dstClass = isa.ClassNone
	}
	m.fu = in.FU()
	m.srcClass = [2]isa.RegClass{in.Src1Class(), in.Src2Class()}
	return m
}

// Decoded is a trace's shared pre-decode: one instMeta per static
// instruction of the program image, built once and then read by every
// pipeline configuration simulating that trace. Both the correct path
// (trace entries) and the wrong path (static-image fetch) index into
// the same table, so a batch of N configurations decodes the program
// exactly once instead of N times per dynamic instruction. Decoded is immutable
// after construction and safe for concurrent readers.
type Decoded struct {
	prog    *program.Program
	meta    []instMeta
	offText instMeta // meta of the HALT that FetchAt substitutes off-text
}

// Decode pre-decodes the trace's program image.
func Decode(tr *trace.Trace) *Decoded {
	d := &Decoded{
		prog:    tr.Prog,
		meta:    make([]instMeta, len(tr.Prog.Insts)),
		offText: decodeMeta(isa.Inst{Op: isa.HALT}),
	}
	for i, in := range tr.Prog.Insts {
		d.meta[i] = decodeMeta(in)
	}
	return d
}

// at returns the meta for the instruction at pc, mirroring
// program.FetchAt: addresses outside the text segment resolve to HALT.
func (d *Decoded) at(pc uint64) *instMeta {
	if pc >= program.TextBase && (pc-program.TextBase)%isa.InstBytes == 0 {
		if idx := (pc - program.TextBase) / isa.InstBytes; idx < uint64(len(d.meta)) {
			return &d.meta[idx]
		}
	}
	return &d.offText
}
