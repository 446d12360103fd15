// Package bpred implements the front-end control-flow predictors of the
// simulated processor: an 18-bit gshare direction predictor with
// speculative history updates (as in Table 2 of the paper), a
// direct-mapped BTB for indirect-jump targets, and a return-address
// stack.
package bpred

import "earlyrelease/internal/isa"

// Config sizes the predictor structures.
type Config struct {
	HistoryBits int // gshare global history length (paper: 18)
	BTBEntries  int // direct-mapped BTB size (power of two)
	RASEntries  int // return-address stack depth
}

// DefaultConfig matches Table 2 of the paper.
func DefaultConfig() Config {
	return Config{HistoryBits: 18, BTBEntries: 512, RASEntries: 16}
}

// Snapshot captures the speculative predictor state at a branch so it can
// be restored on misprediction (history register and RAS position).
type Snapshot struct {
	Hist   uint32
	RASTop int
	RASVal uint64
}

// Predictor holds all front-end prediction state.
type Predictor struct {
	cfg     Config
	mask    uint32
	hist    uint32  // speculatively updated global history
	counter []uint8 // 2-bit saturating counters, four per byte (see ctr)
	btbTag  []uint64
	btbTgt  []uint64
	ras     []uint64
	rasTop  int

	// statistics
	Lookups    uint64
	DirMispred uint64
	TgtLookups uint64
	TgtMispred uint64
}

// canon normalizes out-of-range configuration values to the defaults.
func (cfg Config) canon() Config {
	if cfg.HistoryBits <= 0 || cfg.HistoryBits > 30 {
		cfg.HistoryBits = 18
	}
	if cfg.BTBEntries <= 0 {
		cfg.BTBEntries = 512
	}
	if cfg.RASEntries <= 0 {
		cfg.RASEntries = 16
	}
	return cfg
}

// New returns a predictor with all counters strongly not-taken (0).
func New(cfg Config) *Predictor {
	cfg = cfg.canon()
	n := 1 << cfg.HistoryBits
	return &Predictor{
		cfg:     cfg,
		mask:    uint32(n - 1),
		counter: make([]uint8, (n+3)/4),
		btbTag:  make([]uint64, cfg.BTBEntries),
		btbTgt:  make([]uint64, cfg.BTBEntries),
		ras:     make([]uint64, cfg.RASEntries),
	}
}

// Recycle returns a predictor for cfg, reusing p's tables (the gshare
// counter array alone is 64 KB at 18 history bits) when the geometry
// matches. The returned predictor is indistinguishable from a fresh
// New(cfg).
func Recycle(p *Predictor, cfg Config) *Predictor {
	if p == nil || p.cfg != cfg.canon() {
		return New(cfg)
	}
	clear(p.counter)
	clear(p.btbTag)
	clear(p.btbTgt)
	clear(p.ras)
	p.hist, p.rasTop = 0, 0
	p.Lookups, p.DirMispred = 0, 0
	p.TgtLookups, p.TgtMispred = 0, 0
	return p
}

// ctr returns the byte holding counter idx and the counter's bit offset
// within it.
func (p *Predictor) ctr(idx uint32) (*uint8, uint32) {
	return &p.counter[idx>>2], idx & 3 << 1
}

func (p *Predictor) index(pc uint64) uint32 {
	return (uint32(pc>>2) ^ p.hist) & p.mask
}

// Snap captures the current speculative state. Call before Predict so a
// misprediction can rewind the history the branch itself shifted in.
func (p *Predictor) Snap() Snapshot {
	return Snapshot{Hist: p.hist, RASTop: p.rasTop, RASVal: p.ras[p.rasTop%len(p.ras)]}
}

// Predict returns the predicted direction for a conditional branch and
// speculatively shifts it into the global history.
func (p *Predictor) Predict(pc uint64) bool {
	p.Lookups++
	b, sh := p.ctr(p.index(pc))
	taken := *b>>sh&2 != 0 // counter >= 2
	p.hist = (p.hist<<1 | b2u(taken)) & p.mask
	return taken
}

// Resolve updates the pattern table with the true outcome of a branch.
// snap must be the Snapshot taken before Predict, so the counter indexed
// during prediction is the one trained.
func (p *Predictor) Resolve(pc uint64, snap Snapshot, taken bool) {
	b, sh := p.ctr((uint32(pc>>2) ^ snap.Hist) & p.mask)
	c := *b >> sh & 3
	if taken {
		if c < 3 {
			*b += 1 << sh
		}
	} else if c > 0 {
		*b -= 1 << sh
	}
}

// Recover rewinds the speculative state to snap and shifts in the actual
// outcome of the mispredicted branch; used on misprediction recovery.
func (p *Predictor) Recover(snap Snapshot, actualTaken bool) {
	p.DirMispred++
	p.hist = (snap.Hist<<1 | b2u(actualTaken)) & p.mask
	p.rasTop = snap.RASTop
	p.ras[p.rasTop%len(p.ras)] = snap.RASVal
}

// RecoverTo restores state exactly to snap (for recovery at a
// non-conditional instruction such as a mispredicted indirect jump).
func (p *Predictor) RecoverTo(snap Snapshot) {
	p.hist = snap.Hist
	p.rasTop = snap.RASTop
	p.ras[p.rasTop%len(p.ras)] = snap.RASVal
}

// RecoverIndirect restores predictor state after a mispredicted indirect
// jump: the snapshot is restored and, for returns, the RAS pop is redone
// (the return still consumes an entry on the correct path).
func (p *Predictor) RecoverIndirect(in isa.Inst, snap Snapshot) {
	p.TgtMispred++
	p.RecoverTo(snap)
	if isReturn(in) {
		p.popRAS()
	}
}

// --- indirect targets ---------------------------------------------------

// PredictTarget predicts the target of an indirect control transfer.
// Returns use RAS for instructions shaped like returns, otherwise the
// BTB; ok is false when no prediction is available (predict fall-through,
// which will miss).
func (p *Predictor) PredictTarget(in isa.Inst, pc uint64) (uint64, bool) {
	p.TgtLookups++
	if isReturn(in) {
		return p.popRAS(), true
	}
	slot := int(pc>>2) & (len(p.btbTag) - 1)
	if p.btbTag[slot] == pc {
		return p.btbTgt[slot], true
	}
	return 0, false
}

// OnCall pushes a return address when the front end sees a call.
func (p *Predictor) OnCall(returnPC uint64) {
	p.rasTop++
	p.ras[p.rasTop%len(p.ras)] = returnPC
}

func (p *Predictor) popRAS() uint64 {
	v := p.ras[p.rasTop%len(p.ras)]
	p.rasTop--
	if p.rasTop < 0 {
		p.rasTop = 0
	}
	return v
}

// ResolveTarget trains the BTB with the true target of an indirect jump.
func (p *Predictor) ResolveTarget(pc, target uint64, mispredicted bool) {
	if mispredicted {
		p.TgtMispred++
	}
	slot := int(pc>>2) & (len(p.btbTag) - 1)
	p.btbTag[slot] = pc
	p.btbTgt[slot] = target
}

// IsCall reports whether the front end should push the RAS for in.
func IsCall(in isa.Inst) bool {
	return in.IsJump() && in.Rd == isa.RA
}

func isReturn(in isa.Inst) bool {
	return in.Op == isa.JALR && in.Rd == isa.Zero && in.Rs1 == isa.RA
}

// Accuracy returns the direction-prediction hit rate observed so far.
func (p *Predictor) Accuracy() float64 {
	if p.Lookups == 0 {
		return 1
	}
	return 1 - float64(p.DirMispred)/float64(p.Lookups)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
