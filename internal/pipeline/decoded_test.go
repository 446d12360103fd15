package pipeline

import (
	"testing"

	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
	"earlyrelease/internal/trace"
	"earlyrelease/internal/workloads"
)

// TestDecodeMetaMatchesISA pins decodeMeta to the isa predicate methods
// for every opcode, with destinations covering the zero register (no
// architectural write), the return-address register (calls) and an
// ordinary register.
func TestDecodeMetaMatchesISA(t *testing.T) {
	for op := isa.Opcode(0); op < isa.NumOpcodes; op++ {
		for _, rd := range []isa.Reg{isa.Zero, isa.RA, 5} {
			in := isa.Inst{Op: op, Rd: rd, Rs1: 1, Rs2: 2}
			m := decodeMeta(in)
			for _, c := range []struct {
				name string
				flag metaFlags
				want bool
			}{
				{"load", mLoad, in.IsLoad()},
				{"store", mStore, in.IsStore()},
				{"mem", mMem, in.IsMem()},
				{"branch", mBranch, in.IsBranch()},
				{"jal", mJAL, op == isa.JAL},
				{"indirect", mIndirect, in.IsIndirect()},
				{"ctrl", mCtrl, in.IsCtrl()},
				{"call", mCall, in.IsJump() && rd == isa.RA},
				{"halt", mHalt, in.IsHalt()},
				{"hasDst", mHasDst, in.HasDst()},
			} {
				if got := m.is(c.flag); got != c.want {
					t.Errorf("%s rd=%d: %s flag %v, isa says %v", op, rd, c.name, got, c.want)
				}
			}
			wantDst := isa.ClassNone
			if in.HasDst() {
				wantDst = in.DstClass()
			}
			if m.dstClass != wantDst {
				t.Errorf("%s rd=%d: dstClass %v, want %v", op, rd, m.dstClass, wantDst)
			}
			if m.fu != in.FU() {
				t.Errorf("%s: fu %v, want %v", op, m.fu, in.FU())
			}
			if want := [2]isa.RegClass{in.Src1Class(), in.Src2Class()}; m.srcClass != want {
				t.Errorf("%s: srcClass %v, want %v", op, m.srcClass, want)
			}
		}
	}
}

// TestDecodedAtMatchesFetch checks the table lookup against decoding
// what program.FetchAt returns, for every text pc of every workload
// plus pcs below, past and between instructions (which fetch as HALT).
func TestDecodedAtMatchesFetch(t *testing.T) {
	for _, w := range workloads.All() {
		p := w.Build(1000)
		d := Decode(&trace.Trace{Prog: p})
		end := program.TextBase + uint64(len(p.Insts))*isa.InstBytes
		pcs := []uint64{0, program.TextBase - isa.InstBytes, program.TextBase + 1,
			end, end + isa.InstBytes, end - 1, ^uint64(0)}
		for pc := program.TextBase; pc < end; pc += isa.InstBytes {
			pcs = append(pcs, pc)
		}
		for _, pc := range pcs {
			in, _ := p.FetchAt(pc)
			if got, want := *d.at(pc), decodeMeta(in); got != want {
				t.Errorf("%s pc %#x: table meta %+v, decodeMeta(FetchAt) %+v", w.Name, pc, got, want)
			}
		}
	}
}
