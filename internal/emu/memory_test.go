package emu

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"earlyrelease/internal/program"
)

// refMemory is the byte-at-a-time model of Memory: the data segment
// stored byte by byte, every page it or a write touches counted as
// written, and unset bytes reading as zero.
type refMemory struct {
	bytes map[uint64]byte
	pages map[uint64]bool
}

func newRefMemory(addr uint64, data []byte) *refMemory {
	r := &refMemory{bytes: map[uint64]byte{}, pages: map[uint64]bool{}}
	for i, b := range data {
		r.store(addr+uint64(i), 1, uint64(b))
	}
	return r
}

func (r *refMemory) store(addr uint64, n int, v uint64) {
	for i := 0; i < n; i++ {
		a := addr + uint64(i)
		r.bytes[a] = byte(v >> (8 * i))
		r.pages[a>>pageBits] = true
	}
}

func (r *refMemory) load(addr uint64, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(r.bytes[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (r *refMemory) clone() *refMemory {
	c := &refMemory{bytes: map[uint64]byte{}, pages: map[uint64]bool{}}
	for a, b := range r.bytes {
		c.bytes[a] = b
	}
	for pn := range r.pages {
		c.pages[pn] = true
	}
	return c
}

// checksum hashes the written pages in address order, as Memory.Checksum
// documents.
func (r *refMemory) checksum() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	var pns []uint64
	for pn := range r.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	for _, pn := range pns {
		h = (h ^ pn) * prime
		for off := uint64(0); off < pageSize; off++ {
			h = (h ^ uint64(r.bytes[pn<<pageBits|off])) * prime
		}
	}
	return h
}

// TestMemoryReadsDataInPlace drives a Memory over a data segment that
// ends mid-page with 1-, 2-, 4- and 8-byte reads and writes around the
// segment's ends and its page boundaries, so that accesses straddle
// the boundary between a page still read from the segment and a page a
// write copied, and clones the memory after writes; each copy then goes
// its own way. Every Read and Checksum must equal the byte-at-a-time
// model's, and the segment itself must never change.
func TestMemoryReadsDataInPlace(t *testing.T) {
	base := program.DataBase
	data := make([]byte, 2*pageSize+100)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	orig := bytes.Clone(data)
	end := base + uint64(len(data))
	anchors := []uint64{
		base, base + pageSize, base + 2*pageSize, end, end + pageSize,
		(end + pageSize) &^ pageMask, base - pageSize, 0x7fff000,
	}
	sizes := []int{1, 2, 4, 8}

	rng := rand.New(rand.NewSource(1))
	type pair struct {
		m   *Memory
		ref *refMemory
	}
	mems := []pair{{NewMemory(base, data), newRefMemory(base, data)}}
	for step := 0; step < 6000; step++ {
		if step%1500 == 1499 {
			// Clone the last memory after its writes; both go on.
			last := mems[len(mems)-1]
			mems = append(mems, pair{last.m.clone(), last.ref.clone()})
		}
		p := mems[rng.Intn(len(mems))]
		addr := anchors[rng.Intn(len(anchors))] + uint64(rng.Intn(19)) - 9
		n := sizes[rng.Intn(len(sizes))]
		if rng.Intn(3) == 0 {
			v := rng.Uint64()
			p.m.Write(addr, n, v)
			p.ref.store(addr, n, v)
		} else if got, want := p.m.Read(addr, n), p.ref.load(addr, n); got != want {
			t.Fatalf("step %d: Read(%#x, %d) = %#x, want %#x", step, addr, n, got, want)
		}
		if step%250 == 0 {
			for i, q := range mems {
				if got, want := q.m.Checksum(), q.ref.checksum(); got != want {
					t.Fatalf("step %d: memory %d Checksum = %#x, want %#x", step, i, got, want)
				}
			}
		}
	}
	for i, q := range mems {
		if got, want := q.m.Checksum(), q.ref.checksum(); got != want {
			t.Errorf("memory %d: Checksum = %#x, want %#x", i, got, want)
		}
		for a := base - 16; a < end+16; a++ {
			if got, want := q.m.Read(a, 1), q.ref.load(a, 1); got != want {
				t.Fatalf("memory %d: byte %#x = %#x, want %#x", i, a, got, want)
			}
		}
	}
	if !bytes.Equal(data, orig) {
		t.Error("writes through Memory changed the data segment")
	}
}

// TestRunLeavesDataSegment runs a program that rewrites its data
// segment, a store straddling its end included: the program's Data
// must come out byte-identical, and a second run must see the same
// initial memory.
func TestRunLeavesDataSegment(t *testing.T) {
	b := program.NewBuilder("rewrite")
	arr := b.Words("arr", 1, 2, 3, 4, 5)
	b.Bytes("tail", []byte{9, 9, 9})
	b.La(3, "arr")
	b.Li(1, 5)
	b.Label("loop")
	b.Ld(2, 3, 0)
	b.Addi(2, 2, 100)
	b.Sd(2, 3, 0)
	b.Addi(3, 3, 8)
	b.Addi(1, 1, -1)
	b.Bnez(1, "loop")
	b.Sd(2, 3, 1) // over "tail" and past the end of the segment
	b.Halt()
	p := b.MustBuild()
	orig := bytes.Clone(p.Data)
	var sums []uint64
	for run := 0; run < 2; run++ {
		m := New(p)
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		if got := m.Mem.Read(arr+32, 8); got != 105 {
			t.Errorf("run %d: arr[4] = %d, want 105", run, got)
		}
		sums = append(sums, m.Checksum())
		if !bytes.Equal(p.Data, orig) {
			t.Fatalf("run %d changed the program's data segment", run)
		}
	}
	if sums[0] != sums[1] {
		t.Errorf("runs end with checksums %#x and %#x", sums[0], sums[1])
	}
}
