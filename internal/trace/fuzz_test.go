package trace_test

import (
	"math/rand"
	"testing"

	"earlyrelease/internal/emu"
	"earlyrelease/internal/fuzzprog"
	"earlyrelease/internal/trace"
)

// FuzzTraceColumns records the entries the emulator's Step returns for
// a generated program (forward branches, calls and returns, loads and
// stores), appends them to a trace sized by New, and walks a cursor
// over it with random save-and-restore rewinds: every Entry, the PC
// before and after it, and End past the last must match what the
// emulator did. A trace sized by New holds exactly its columns'
// lengths: 8 B per 64 entries, 8 B per memory entry and 4 B per JALR
// with a successor.
func FuzzTraceColumns(f *testing.F) {
	// Programs of 0 to 200 templates (calls among them), each walked
	// under three rewind seeds.
	for _, n := range []int{0, 1, 7, 21, 22, 42, 64, 100, 200} {
		for seed := uint64(0); seed < 3; seed++ {
			data := make([]byte, 3*n)
			for i := range data {
				data[i] = byte(i*37 + int(seed)*11)
			}
			f.Add(data, seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		p := fuzzprog.Build(data)
		if p == nil {
			t.Fatal("generator emitted an invalid program")
		}
		// The oracle: Step's entries, and the PC before each step and
		// after the last.
		m := emu.New(p)
		var es []trace.Entry
		var pcs []uint64
		mem, jalrs := 0, 0
		for !m.Halted {
			pc := m.PC
			e, err := m.Step()
			if err != nil {
				break
			}
			if len(es) > 0 && p.Insts[es[len(es)-1].Idx].IsIndirect() {
				jalrs++
			}
			if p.Insts[e.Idx].IsMem() {
				mem++
			}
			es, pcs = append(es, e), append(pcs, pc)
		}
		pcs = append(pcs, m.PC)

		tr := trace.New(p, len(es), mem, jalrs)
		for _, e := range es {
			tr.Append(e)
		}
		tr.End = m.PC
		if tr.Len() != len(es) {
			t.Fatalf("Len = %d, appended %d", tr.Len(), len(es))
		}
		words := (int64(len(es)) + 63) / 64
		if exact := 8*words + 8*int64(mem) + 4*int64(jalrs); tr.Bytes() != exact {
			t.Fatalf("%d entries, %d memory, %d JALR targets hold %d B; %d B at exact size",
				len(es), mem, jalrs, tr.Bytes(), exact)
		}

		rng := rand.New(rand.NewSource(int64(seed)))
		saved, rewinds := tr.Start(), 0
		for c := tr.Start(); ; {
			i := c.Index()
			if got := tr.PC(c); got != pcs[i] {
				t.Fatalf("entry %d: PC = %#x, emulator at %#x", i, got, pcs[i])
			}
			if i == len(es) {
				break
			}
			switch r := rng.Intn(16); {
			case r == 0:
				saved = c
			case r == 1 && rewinds < 64:
				c, rewinds = saved, rewinds+1
				continue
			}
			if got := tr.Next(&c); got != es[i] {
				t.Fatalf("entry %d = %+v, emulator gives %+v", i, got, es[i])
			}
			if c.Index() != i+1 {
				t.Fatalf("Next from entry %d moved to entry %d", i, c.Index())
			}
		}
	})
}
