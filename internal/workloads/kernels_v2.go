package workloads

import (
	"math/bits"

	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
)

// Corpus v2: six kernels stressing machine-model regions the Table 3
// stand-ins never reach. Each is registered in workloads.go with
// Paper: false so the paper's figure drivers keep their original suite
// while sweeps and the sensitivity driver can draw on the full corpus.
//
//	listwalk  serial dependent-load chain over a 256 KB list: zero
//	          memory-level parallelism, latency-bound
//	hashjoin  open-addressing probes over a 512 KB key table: every
//	          probe a fresh L1 (and often L2) miss
//	qsort     recursive quicksort with data-dependent swap branches:
//	          predictor-hostile, irregular call depth
//	rdescent  recursive-descent expression parser: call/return chains
//	          deep enough to pressure the checkpoint stack and RAS
//	triad     STREAM-style a[i] = b[i] + s*c[i] over arrays sized past
//	          the L2: bandwidth-bound FP streaming
//	mixmode   alternating integer-hash and FP-stencil phases: register
//	          pressure migrates between the two files every ~3k insts

// lcg64 constants shared between the host-side data generators and the
// in-ISA key streams (hashjoin, mixmode). The in-kernel multiply/add
// wrap identically to Go's uint64 arithmetic, so host and machine
// traverse the same sequence.
const (
	lcgMul = 6364136223846793005
	lcgAdd = 1442695040888963407
)

// buildListwalk emits the MLP-starved pointer chase: the nodes form one
// pseudo-random permutation cycle over a 256 KB array (far beyond the
// 32 KB L1D), and every load's address depends on the previous load.
func buildListwalk(scale int) *program.Program {
	const (
		nodes   = 32768 // 8 B per node: 256 KB footprint
		perStep = 5
	)
	steps := max(64, scale/perStep)
	b := program.NewBuilder("listwalk")

	rng := newLCG(60)
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	for i := nodes - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]int64, nodes)
	for k, p := range perm {
		next[p] = int64(perm[(k+1)%nodes] * 8)
	}
	b.Words("list", next...)
	b.Words("out", 0)

	const (
		rList = 10
		rPtr  = 11
		rCnt  = 12
		rAcc  = 13
		rT0   = 16
	)
	b.La(rList, "list")
	b.Li(rPtr, 0)
	b.Li(rCnt, int64(steps))
	b.Li(rAcc, 0)

	b.Label("walk")
	b.Add(rT0, rList, rPtr)
	b.Ld(rPtr, rT0, 0) // serial chain: next address depends on this load
	b.Xor(rAcc, rAcc, rPtr)
	b.Addi(rCnt, rCnt, -1)
	b.Bnez(rCnt, "walk")

	b.La(rT0, "out")
	b.Sd(rAcc, rT0, 0)
	b.Halt()
	return b.MustBuild()
}

// buildHashjoin emits the cache-hostile probe side of a hash join: keys
// from a 64-bit LCG stream are hashed into a 512 KB open-addressing
// table populated host-side with the first half of the same stream.
// Even iterations probe present keys, odd ones a perturbed absent key,
// so hit and miss paths interleave unpredictably for the L1D.
func buildHashjoin(scale int) *program.Program {
	const (
		slots    = 65536 // 8 B keys: 512 KB table
		fill     = slots / 2
		seed0    = 0x1E37_79B9_7F4A_7C15 // arbitrary fixed start point
		perProbe = 26
	)
	iters := max(64, scale/perProbe)
	b := program.NewBuilder("hashjoin")

	hash := func(key uint64) uint64 { return (key ^ (key >> 21)) & (slots - 1) }
	table := make([]int64, slots)
	k := uint64(seed0)
	for i := 0; i < fill; i++ {
		k = k*lcgMul + lcgAdd
		key := k | 1
		h := hash(key)
		for j := uint64(0); j < 16; j++ {
			s := (h + j) & (slots - 1)
			if table[s] == 0 {
				table[s] = int64(key)
				break
			}
		}
	}
	b.Words("table", table...)
	b.Words("out", 0, 0)

	const (
		rTab  = 10
		rMask = 11
		rMulC = 12
		rAddC = 13
		rK    = 14
		rI    = 15
		rN    = 5
		rHit  = 6
		rMiss = 7
		rKey  = 20
		rH    = 21
		rJ    = 22
		rT0   = 16
		rT1   = 17
		rT2   = 18
	)
	b.La(rTab, "table")
	b.Li(rMask, slots-1)
	b.Li(rMulC, lcgMul)
	b.Li(rAddC, lcgAdd)
	b.Li(rK, seed0)
	b.Li(rI, 0)
	b.Li(rN, int64(iters))
	b.Li(rHit, 0)
	b.Li(rMiss, 0)

	b.Label("loop")
	b.Mul(rK, rK, rMulC)
	b.Add(rK, rK, rAddC)
	b.Ori(rKey, rK, 1)
	// Odd iterations flip bit 1, producing a key never inserted.
	b.Andi(rT0, rI, 1)
	b.Slli(rT0, rT0, 1)
	b.Xor(rKey, rKey, rT0)
	// h = (key ^ key>>21) & mask
	b.Srli(rT1, rKey, 21)
	b.Xor(rH, rKey, rT1)
	b.And(rH, rH, rMask)
	// linear probe, limit 16
	b.Li(rJ, 0)
	b.Label("probe")
	b.Add(rT0, rH, rJ)
	b.And(rT0, rT0, rMask)
	b.Slli(rT0, rT0, 3)
	b.Add(rT0, rTab, rT0)
	b.Ld(rT1, rT0, 0)
	b.Beqz(rT1, "miss")
	b.Beq(rT1, rKey, "hit")
	b.Addi(rJ, rJ, 1)
	b.Slti(rT2, rJ, 16)
	b.Bnez(rT2, "probe")
	b.J("miss")
	b.Label("hit")
	b.Addi(rHit, rHit, 1)
	b.J("next")
	b.Label("miss")
	b.Addi(rMiss, rMiss, 1)
	b.Label("next")
	b.Addi(rI, rI, 1)
	b.Blt(rI, rN, "loop")

	b.La(rT0, "out")
	b.Sd(rHit, rT0, 0)
	b.Sd(rMiss, rT0, 8)
	b.Halt()
	return b.MustBuild()
}

// buildQsort emits a recursive quicksort (Lomuto partition, last-element
// pivot) over pseudo-random data. Every comparison is a data-dependent
// branch the gshare predictor cannot learn, and the recursion produces
// an irregular call tree. The array size grows with scale so one run is
// a whole sort, not a fragment.
func buildQsort(scale int) *program.Program {
	cost := func(n int) int {
		lg := bits.Len(uint(n)) - 1
		return 6*n + 13*n*lg
	}
	n := 64
	for n < 4096 && cost(n*2) <= scale {
		n *= 2
	}
	sweeps := max(1, scale/cost(n))
	b := program.NewBuilder("qsort")

	rng := newLCG(61)
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(rng.next() % 1_000_003)
	}
	b.Words("src", src...)
	b.Space("work", n*8)
	b.Words("out", 0)

	const (
		rSrc  = 10
		rWork = 11
		rS    = 12
		rNS   = 13
		rI    = 14
		rEnd  = 15
		rLo   = 4 // argument: low byte offset (inclusive)
		rHi   = 5 // argument: high byte offset (inclusive)
		rP    = 6 // partition point
		rJ    = 7
		rPiv  = 20
		rAcc  = 21
		rT0   = 16
		rT1   = 17
		rT2   = 18
		rT3   = 19
	)
	last := int64((n - 1) * 8)
	b.La(rSrc, "src")
	b.La(rWork, "work")
	b.Li(rS, 0)
	b.Li(rNS, int64(sweeps))
	b.Li(rAcc, 0)

	b.Label("sweep")
	// copy src -> work
	b.Li(rI, 0)
	b.Li(rEnd, int64(n)*8)
	b.Label("copy")
	b.Add(rT0, rSrc, rI)
	b.Ld(rT1, rT0, 0)
	b.Add(rT0, rWork, rI)
	b.Sd(rT1, rT0, 0)
	b.Addi(rI, rI, 8)
	b.Blt(rI, rEnd, "copy")
	// qsort(0, last)
	b.Li(rLo, 0)
	b.Li(rHi, last)
	b.Call("qsort")
	// checksum the median so the sort cannot be optimized away
	b.Li(rT0, (last/8/2)*8)
	b.Add(rT0, rWork, rT0)
	b.Ld(rT1, rT0, 0)
	b.Xor(rAcc, rAcc, rT1)
	b.Addi(rS, rS, 1)
	b.Blt(rS, rNS, "sweep")
	b.La(rT0, "out")
	b.Sd(rAcc, rT0, 0)
	b.Halt()

	// qsort(lo=rLo, hi=rHi): sorts work[lo..hi] (byte offsets).
	b.Label("qsort")
	b.Blt(rLo, rHi, "qs_body")
	b.Ret()
	b.Label("qs_body")
	// Lomuto partition, pivot = work[hi].
	b.Add(rT0, rWork, rHi)
	b.Ld(rPiv, rT0, 0)
	b.Addi(rP, rLo, -8) // i
	b.Mov(rJ, rLo)
	b.Label("qs_scan")
	b.Add(rT0, rWork, rJ)
	b.Ld(rT1, rT0, 0) // work[j]
	b.Slt(rT2, rPiv, rT1)
	b.Bnez(rT2, "qs_next") // work[j] > pivot: keep scanning
	b.Addi(rP, rP, 8)
	b.Add(rT3, rWork, rP)
	b.Ld(rT2, rT3, 0) // swap work[i] <-> work[j]
	b.Sd(rT1, rT3, 0)
	b.Sd(rT2, rT0, 0)
	b.Label("qs_next")
	b.Addi(rJ, rJ, 8)
	b.Blt(rJ, rHi, "qs_scan")
	// place pivot at p = i+8
	b.Addi(rP, rP, 8)
	b.Add(rT0, rWork, rP)
	b.Ld(rT1, rT0, 0)
	b.Add(rT2, rWork, rHi)
	b.Ld(rT3, rT2, 0)
	b.Sd(rT3, rT0, 0)
	b.Sd(rT1, rT2, 0)
	// recurse on both halves
	b.Prologue(32)
	b.Sd(rHi, isa.SP, 8)
	b.Sd(rP, isa.SP, 16)
	b.Addi(rHi, rP, -8)
	b.Call("qsort")
	b.Ld(rP, isa.SP, 16)
	b.Ld(rHi, isa.SP, 8)
	b.Addi(rLo, rP, 8)
	b.Call("qsort")
	b.Epilogue(32)
	return b.MustBuild()
}

// rdescent token tags.
const (
	tokNum = iota
	tokPlus
	tokMinus
	tokMul
	tokLParen
	tokRParen
	tokEnd
)

// tokgen generates a parseable token stream from the expression grammar
// the kernel's parser implements, bounded by a token budget.
type tokgen struct {
	rng    *lcg
	toks   []int64 // (tag, value) pairs
	budget int
	depth  int
}

func (g *tokgen) emit(tag, val int64) { g.toks = append(g.toks, tag, val) }

func (g *tokgen) expr() {
	g.term()
	for extra := g.rng.intn(3); extra > 0 && g.budget > 0; extra-- {
		if g.rng.intn(2) == 0 {
			g.emit(tokPlus, 0)
		} else {
			g.emit(tokMinus, 0)
		}
		g.term()
	}
}

func (g *tokgen) term() {
	g.factor()
	if g.rng.intn(3) == 0 && g.budget > 0 {
		g.emit(tokMul, 0)
		g.factor()
	}
}

func (g *tokgen) factor() {
	g.budget--
	if g.depth < 10 && g.budget > 0 && g.rng.intn(3) == 0 {
		g.emit(tokLParen, 0)
		g.depth++
		g.expr()
		g.depth--
		g.emit(tokRParen, 0)
		return
	}
	g.emit(tokNum, int64(g.rng.intn(97)+1))
}

// buildRdescent emits a recursive-descent parser for the grammar
//
//	expr   := term (('+'|'-') term)*
//	term   := factor ('*' factor)?
//	factor := NUM | '(' expr ')'
//
// over a host-generated token stream. Nearly every token costs one or
// two real call/return pairs, keeping the RAS, the checkpoint stack and
// the release engine's speculative levels under constant pressure.
func buildRdescent(scale int) *program.Program {
	const perTok = 22
	target := max(128, min(8192, scale/perTok))
	// The stream holds exactly 2*target+1 (tag, value) pairs: each of
	// the target factors ends in a number or a ')', every factor but the
	// first follows an operator or a '(', and two tokens end the stream.
	g := &tokgen{rng: newLCG(62), budget: target, toks: make([]int64, 0, 2*(2*target+1))}
	for g.budget > 0 {
		g.expr()
		if g.budget > 0 {
			g.emit(tokPlus, 0)
		}
	}
	g.emit(tokNum, 1) // ensure the trailing '+' has an operand
	g.emit(tokEnd, 0)
	tokens := len(g.toks) / 2
	sweeps := max(1, scale/(tokens*perTok))

	b := program.NewBuilder("rdescent")
	b.Words("toks", g.toks...)
	b.Words("out", 0)

	const (
		rTok = 10
		rCur = 9 // byte offset of the current token; global cursor
		rS   = 12
		rNS  = 13
		rAcc = 14
		rRes = 2 // parse result register
		rT0  = 16
		rT1  = 17
		rT2  = 18
		rT3  = 19
	)
	b.La(rTok, "toks")
	b.Li(rS, 0)
	b.Li(rNS, int64(sweeps))
	b.Li(rAcc, 0)

	b.Label("sweep")
	b.Li(rCur, 0)
	b.Call("rd_expr")
	b.Xor(rAcc, rAcc, rRes)
	b.Addi(rS, rS, 1)
	b.Blt(rS, rNS, "sweep")
	b.La(rT0, "out")
	b.Sd(rAcc, rT0, 0)
	b.Halt()

	// rd_expr: term (('+'|'-') term)* -> rRes
	b.Label("rd_expr")
	b.Prologue(24)
	b.Call("rd_term")
	b.Label("re_loop")
	b.Add(rT0, rTok, rCur)
	b.Ld(rT1, rT0, 0)
	b.Addi(rT2, rT1, -tokPlus)
	b.Beqz(rT2, "re_plus")
	b.Addi(rT2, rT1, -tokMinus)
	b.Beqz(rT2, "re_minus")
	b.Epilogue(24)
	b.Label("re_plus")
	b.Addi(rCur, rCur, 16)
	b.Sd(rRes, isa.SP, 8)
	b.Call("rd_term")
	b.Ld(rT3, isa.SP, 8)
	b.Add(rRes, rT3, rRes)
	b.J("re_loop")
	b.Label("re_minus")
	b.Addi(rCur, rCur, 16)
	b.Sd(rRes, isa.SP, 8)
	b.Call("rd_term")
	b.Ld(rT3, isa.SP, 8)
	b.Sub(rRes, rT3, rRes)
	b.J("re_loop")

	// rd_term: factor ('*' factor)? -> rRes
	b.Label("rd_term")
	b.Prologue(24)
	b.Call("rd_factor")
	b.Add(rT0, rTok, rCur)
	b.Ld(rT1, rT0, 0)
	b.Addi(rT2, rT1, -tokMul)
	b.Bnez(rT2, "rt_done")
	b.Addi(rCur, rCur, 16)
	b.Sd(rRes, isa.SP, 8)
	b.Call("rd_factor")
	b.Ld(rT3, isa.SP, 8)
	b.Mul(rRes, rT3, rRes)
	b.Label("rt_done")
	b.Epilogue(24)

	// rd_factor: NUM | '(' expr ')' -> rRes
	b.Label("rd_factor")
	b.Add(rT0, rTok, rCur)
	b.Ld(rT1, rT0, 0)
	b.Addi(rT2, rT1, -tokLParen)
	b.Beqz(rT2, "rf_paren")
	b.Ld(rRes, rT0, 8) // NUM value
	b.Addi(rCur, rCur, 16)
	b.Ret()
	b.Label("rf_paren")
	b.Addi(rCur, rCur, 16) // consume '('
	b.Prologue(16)
	b.Call("rd_expr")
	b.Addi(rCur, rCur, 16) // consume ')'
	b.Epilogue(16)
	return b.MustBuild()
}

// buildTriad emits the STREAM triad a[i] = b[i] + s*c[i], unrolled by
// four, over arrays sized with scale up to 3 x 512 KB (past the 1 MB
// L2), so at full scale every iteration streams from main memory.
func buildTriad(scale int) *program.Program {
	const perElem = 6
	n := scale / perElem
	if n < 512 {
		n = 512
	}
	if n > 65536 {
		n = 65536
	}
	n &^= 7 // unroll-4 alignment
	sweeps := max(1, scale/(n*perElem))
	b := program.NewBuilder("triad")

	fpGrid(b, "tb", n, 70)
	fpGrid(b, "tc", n, 71)
	fpSpace(b, "ta", n*8)
	b.Doubles("ts", 1.000731)

	const (
		rA   = 10
		rB   = 11
		rC   = 12
		rEnd = 13
		rS   = 14
		rNS  = 15
		rT0  = 16
		fS   = 30
	)
	b.La(rT0, "ts")
	b.Fld(fS, rT0, 0)
	b.Li(rS, 0)
	b.Li(rNS, int64(sweeps))

	b.Label("sweep")
	b.La(rA, "ta")
	b.La(rB, "tb")
	b.La(rC, "tc")
	b.La(rEnd, "ta")
	b.Li(rT0, int64(n)*8)
	b.Add(rEnd, rEnd, rT0)
	b.Label("quad")
	b.Fld(1, rB, 0)
	b.Fld(2, rC, 0)
	b.Fmul(3, 2, fS)
	b.Fadd(4, 1, 3)
	b.Fsd(4, rA, 0)
	b.Fld(5, rB, 8)
	b.Fld(6, rC, 8)
	b.Fmul(7, 6, fS)
	b.Fadd(8, 5, 7)
	b.Fsd(8, rA, 8)
	b.Fld(9, rB, 16)
	b.Fld(10, rC, 16)
	b.Fmul(11, 10, fS)
	b.Fadd(12, 9, 11)
	b.Fsd(12, rA, 16)
	b.Fld(13, rB, 24)
	b.Fld(14, rC, 24)
	b.Fmul(15, 14, fS)
	b.Fadd(16, 13, 15)
	b.Fsd(16, rA, 24)
	b.Addi(rA, rA, 32)
	b.Addi(rB, rB, 32)
	b.Addi(rC, rC, 32)
	b.Blt(rA, rEnd, "quad")
	b.Addi(rS, rS, 1)
	b.Blt(rS, rNS, "sweep")
	b.Halt()
	return b.MustBuild()
}

// buildMixmode alternates an integer hash-and-count phase with an FP
// multiply-accumulate stencil phase every ~3k dynamic instructions, so
// register pressure migrates between the two physical files and neither
// class's release behavior dominates for long.
func buildMixmode(scale int) *program.Program {
	const (
		intIters = 128
		fpLen    = 256
		perPhase = 3100
	)
	phases := max(2, scale/perPhase)
	b := program.NewBuilder("mixmode")

	rng := newLCG(63)
	table := make([]int64, 1024)
	for i := range table {
		table[i] = int64(rng.intn(255))
	}
	b.Words("mtab", table...)
	fpGrid(b, "mx", fpLen, 72)
	fpGrid(b, "my", fpLen, 73)
	b.Doubles("ms", 0.999847)
	b.Words("out", 0)

	const (
		rTab  = 10
		rX    = 11
		rY    = 12
		rP    = 13
		rNP   = 14
		rK    = 15
		rMulC = 5
		rAddC = 6
		rCnt  = 7
		rI    = 8
		rN    = 9
		rT0   = 16
		rT1   = 17
		rT2   = 18
		fS    = 30
	)
	b.La(rTab, "mtab")
	b.La(rT0, "ms")
	b.Fld(fS, rT0, 0)
	b.Li(rMulC, lcgMul)
	b.Li(rAddC, lcgAdd)
	b.Li(rK, 0x5bd1e995)
	b.Li(rCnt, 0)
	b.Li(rP, 0)
	b.Li(rNP, int64(phases))

	b.Label("phase")
	// Integer phase: LCG keys, table lookups, data-dependent counting.
	b.Li(rI, 0)
	b.Li(rN, intIters)
	b.Label("iphase")
	b.Mul(rK, rK, rMulC)
	b.Add(rK, rK, rAddC)
	b.Srli(rT0, rK, 33)
	b.Andi(rT0, rT0, 1023)
	b.Slli(rT0, rT0, 3)
	b.Add(rT0, rTab, rT0)
	b.Ld(rT1, rT0, 0)
	b.Andi(rT2, rT1, 1)
	b.Beqz(rT2, "iskip")
	b.Addi(rCnt, rCnt, 1)
	b.Label("iskip")
	b.Addi(rI, rI, 1)
	b.Blt(rI, rN, "iphase")
	// FP phase: y[i] = y[i]*s + x[i] over the small resident arrays.
	b.La(rX, "mx")
	b.La(rY, "my")
	b.Li(rI, 0)
	b.Li(rN, fpLen)
	b.Label("fphase")
	b.Fld(1, rY, 0)
	b.Fld(2, rX, 0)
	b.Fmul(3, 1, fS)
	b.Fadd(4, 3, 2)
	b.Fsd(4, rY, 0)
	b.Addi(rX, rX, 8)
	b.Addi(rY, rY, 8)
	b.Addi(rI, rI, 1)
	b.Blt(rI, rN, "fphase")
	b.Addi(rP, rP, 1)
	b.Blt(rP, rNP, "phase")

	b.La(rT0, "out")
	b.Sd(rCnt, rT0, 0)
	b.Halt()
	return b.MustBuild()
}
