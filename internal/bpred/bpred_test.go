package bpred

import (
	"math/rand"
	"testing"

	"earlyrelease/internal/isa"
)

func TestLearnsAlwaysTaken(t *testing.T) {
	// Drive the predictor the way the pipeline does: speculative history
	// update at predict, recovery on misprediction. With a short history
	// the register saturates to all-taken quickly and the branch then
	// predicts correctly forever.
	p := New(Config{HistoryBits: 4, BTBEntries: 64, RASEntries: 8})
	pc := uint64(0x1000)
	for i := 0; i < 30; i++ {
		snap := p.Snap()
		pred := p.Predict(pc)
		if pred != true {
			p.Recover(snap, true)
		}
		p.Resolve(pc, snap, true)
	}
	snap := p.Snap()
	if !p.Predict(pc) {
		t.Error("predictor did not learn an always-taken branch")
	}
	p.Resolve(pc, snap, true)
}

func TestLearnsAlternatingWithHistory(t *testing.T) {
	// gshare with speculative history must learn a strict T/N/T/N
	// pattern almost perfectly once warmed up.
	p := New(Config{HistoryBits: 10, BTBEntries: 64, RASEntries: 8})
	pc := uint64(0x2000)
	correct := 0
	for i := 0; i < 400; i++ {
		actual := i%2 == 0
		snap := p.Snap()
		pred := p.Predict(pc)
		if pred == actual {
			correct++
		} else {
			p.Recover(snap, actual)
		}
		p.Resolve(pc, snap, actual)
	}
	if correct < 350 {
		t.Errorf("alternating pattern: only %d/400 correct", correct)
	}
}

func TestMispredictRecoveryRestoresHistory(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x3000)
	snap := p.Snap()
	pred := p.Predict(pc)
	hAfter := p.hist
	p.Recover(snap, !pred)
	// After recovery the history must reflect the ACTUAL outcome, not
	// the predicted one.
	want := (snap.Hist<<1 | b2u(!pred)) & p.mask
	if p.hist != want {
		t.Errorf("hist = %x, want %x (speculative was %x)", p.hist, want, hAfter)
	}
}

func TestRASPredictsReturns(t *testing.T) {
	p := New(DefaultConfig())
	call := isa.Inst{Op: isa.JAL, Rd: isa.RA, Imm: 100}
	ret := isa.Inst{Op: isa.JALR, Rd: isa.Zero, Rs1: isa.RA}
	if !IsCall(call) {
		t.Fatal("JAL ra not recognized as call")
	}
	p.OnCall(0x1004)
	p.OnCall(0x2004)
	if tgt, ok := p.PredictTarget(ret, 0x5000); !ok || tgt != 0x2004 {
		t.Errorf("first return -> %#x, want 0x2004", tgt)
	}
	if tgt, _ := p.PredictTarget(ret, 0x5004); tgt != 0x1004 {
		t.Errorf("second return -> %#x, want 0x1004", tgt)
	}
}

func TestRASRecovery(t *testing.T) {
	p := New(DefaultConfig())
	ret := isa.Inst{Op: isa.JALR, Rd: isa.Zero, Rs1: isa.RA}
	p.OnCall(0xAAA4)
	snap := p.Snap()
	// A wrong-path call pushes garbage; recovery must restore, and the
	// real return must still consume the correct entry.
	p.OnCall(0xBBB4)
	p.RecoverIndirect(ret, snap)
	// The pop for the mispredicted return has been redone; the stack is
	// now below the 0xAAA4 entry.
	p.OnCall(0xCCC4)
	if tgt, _ := p.PredictTarget(ret, 0x6000); tgt != 0xCCC4 {
		t.Errorf("post-recovery return -> %#x, want 0xCCC4", tgt)
	}
}

func TestBTBLearnsIndirectTargets(t *testing.T) {
	p := New(DefaultConfig())
	jr := isa.Inst{Op: isa.JALR, Rd: isa.Zero, Rs1: 5} // not a return
	pc := uint64(0x4000)
	if _, ok := p.PredictTarget(jr, pc); ok {
		t.Error("cold BTB returned a prediction")
	}
	p.ResolveTarget(pc, 0x7777000, true)
	if tgt, ok := p.PredictTarget(jr, pc); !ok || tgt != 0x7777000 {
		t.Errorf("BTB -> %#x, %v", tgt, ok)
	}
}

func TestAccuracyAccounting(t *testing.T) {
	p := New(Config{HistoryBits: 4, BTBEntries: 64, RASEntries: 8})
	pc := uint64(0x100)
	for i := 0; i < 10; i++ {
		snap := p.Snap()
		pred := p.Predict(pc)
		if pred != true {
			p.Recover(snap, true)
		}
		p.Resolve(pc, snap, true)
	}
	if p.Lookups != 10 {
		t.Errorf("lookups = %d", p.Lookups)
	}
	if acc := p.Accuracy(); acc <= 0 || acc > 1 {
		t.Errorf("accuracy = %f", acc)
	}
	if p.DirMispred == 0 {
		t.Error("cold-start mispredictions not counted")
	}
}

// byteGshare is the reference direction predictor: the gshare table as
// one byte per 2-bit counter, as the predictor stored it before packing
// four counters to a byte. TestPackedMatchesByteGshare holds the packed
// table to it.
type byteGshare struct {
	mask    uint32
	hist    uint32
	counter []uint8
}

func newByteGshare(bits int) *byteGshare {
	n := 1 << bits
	return &byteGshare{mask: uint32(n - 1), counter: make([]uint8, n)}
}

func (g *byteGshare) predict(pc uint64) bool {
	taken := g.counter[(uint32(pc>>2)^g.hist)&g.mask] >= 2
	g.hist = (g.hist<<1 | b2u(taken)) & g.mask
	return taken
}

func (g *byteGshare) resolve(pc uint64, hist uint32, taken bool) {
	idx := (uint32(pc>>2) ^ hist) & g.mask
	c := g.counter[idx]
	if taken {
		if c < 3 {
			g.counter[idx] = c + 1
		}
	} else if c > 0 {
		g.counter[idx] = c - 1
	}
}

// TestPackedMatchesByteGshare drives the packed predictor and the
// byte-per-counter reference with the same seeded stream of
// predictions, out-of-order resolutions and recoveries, at history
// lengths whose tables hold one, two, a partial byte's worth and
// many bytes of counters. Every prediction, the history after every
// step, and finally every counter must agree.
func TestPackedMatchesByteGshare(t *testing.T) {
	for _, bits := range []int{1, 2, 3, 10, 18} {
		p := New(Config{HistoryBits: bits, BTBEntries: 64, RASEntries: 8})
		ref := newByteGshare(bits)
		if want := (len(ref.counter) + 3) / 4; len(p.counter) != want {
			t.Fatalf("bits %d: packed table is %d bytes, want %d", bits, len(p.counter), want)
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		type branch struct {
			pc   uint64
			snap Snapshot
		}
		var pending []branch
		for step := 0; step < 200_000; step++ {
			switch op := rng.Intn(8); {
			case op < 4 || len(pending) == 0:
				pc := uint64(rng.Intn(4096)) << 2
				snap := p.Snap()
				if got, want := p.Predict(pc), ref.predict(pc); got != want {
					t.Fatalf("bits %d step %d: predicted %v, reference %v", bits, step, got, want)
				}
				pending = append(pending, branch{pc, snap})
			case op < 7:
				i := rng.Intn(len(pending))
				b := pending[i]
				taken := rng.Intn(3) != 0
				p.Resolve(b.pc, b.snap, taken)
				ref.resolve(b.pc, b.snap.Hist, taken)
				pending = append(pending[:i], pending[i+1:]...)
			default:
				i := rng.Intn(len(pending))
				taken := rng.Intn(2) == 0
				p.Recover(pending[i].snap, taken)
				ref.hist = (pending[i].snap.Hist<<1 | b2u(taken)) & ref.mask
				pending = pending[:i]
			}
			if p.hist != ref.hist {
				t.Fatalf("bits %d step %d: history %#x, reference %#x", bits, step, p.hist, ref.hist)
			}
		}
		for idx, want := range ref.counter {
			b, sh := p.ctr(uint32(idx))
			if got := *b >> sh & 3; got != want {
				t.Fatalf("bits %d: counter %d = %d, reference %d", bits, idx, got, want)
			}
		}
	}
}
