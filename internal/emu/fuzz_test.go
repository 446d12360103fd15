package emu

import (
	"errors"
	"testing"

	"earlyrelease/internal/fuzzprog"
)

// FuzzEmuTrace runs arbitrary valid programs (fuzzprog.Build): the
// emulator must either halt with a trace entry per retired instruction
// or fail with a clean error — and do so deterministically.
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
		p := fuzzprog.Build(data)
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
		m2 := New(fuzzprog.Build(data))
		if err := m2.RunQuiet(1 << 20); err != nil {
			t.Fatalf("second run failed: %v", err)
		}
		if m2.ICount != m.ICount || m2.Mem.Checksum() != m.Mem.Checksum() {
			t.Fatalf("nondeterministic execution: %d/%d insts, %x/%x checksums",
				m.ICount, m2.ICount, m.Mem.Checksum(), m2.Mem.Checksum())
		}
	})
}
