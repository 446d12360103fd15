package program

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// refData is the append-based data-segment encoder the builder used
// before it assembled the segment once in Build: Words and Doubles
// append one value at a time, and align pads with one zero byte at a
// time. It is the reference model FuzzBuilderData holds Builder to.
type refData struct {
	data []byte
}

func (r *refData) align(n int) {
	for len(r.data)%n != 0 {
		r.data = append(r.data, 0)
	}
}

func (r *refData) Words(values ...int64) uint64 {
	r.align(8)
	addr := DataBase + uint64(len(r.data))
	for _, v := range values {
		r.data = binary.LittleEndian.AppendUint64(r.data, uint64(v))
	}
	return addr
}

func (r *refData) Doubles(values ...float64) uint64 {
	r.align(8)
	addr := DataBase + uint64(len(r.data))
	for _, v := range values {
		r.data = binary.LittleEndian.AppendUint64(r.data, math.Float64bits(v))
	}
	return addr
}

func (r *refData) Space(n int) uint64 {
	r.align(8)
	addr := DataBase + uint64(len(r.data))
	r.data = append(r.data, make([]byte, n)...)
	return addr
}

func (r *refData) Bytes(raw []byte) uint64 {
	addr := DataBase + uint64(len(r.data))
	r.data = append(r.data, raw...)
	return addr
}

// diffData runs one sequence of data allocations through a Builder and
// through refData. Each op is a byte pair: the first picks Words,
// Doubles, Space or Bytes, the second the element count; the values
// come from the bytes after the pair. Every allocation is labelled, and
// the built program must hold the reference's bytes and, for every
// label, the reference's address.
func diffData(t *testing.T, ops []byte) {
	b := NewBuilder("fuzz")
	var ref refData
	want := map[string]uint64{}
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		c := ops[0]
		ops = ops[1:]
		return c
	}
	word := func() uint64 {
		var w uint64
		for i := 0; i < 8; i++ {
			w |= uint64(next()) << (8 * i)
		}
		return w
	}
	for i := 0; len(ops) >= 2; i++ {
		name := fmt.Sprintf("d%d", i)
		op, n := next()%4, int(next())
		var got, addr uint64
		switch op {
		case 0:
			vals := make([]int64, n%32)
			for j := range vals {
				vals[j] = int64(word())
			}
			got, addr = b.Words(name, vals...), ref.Words(vals...)
		case 1:
			vals := make([]float64, n%32)
			for j := range vals {
				vals[j] = math.Float64frombits(word())
			}
			got, addr = b.Doubles(name, vals...), ref.Doubles(vals...)
		case 2:
			got, addr = b.Space(name, n*3), ref.Space(n*3)
		case 3:
			raw := make([]byte, n%16)
			for j := range raw {
				raw[j] = next()
			}
			got, addr = b.Bytes(name, raw), ref.Bytes(raw)
		}
		if got != addr {
			t.Fatalf("op %d (%d, n=%d): Builder address %#x, reference %#x", i, op, n, got, addr)
		}
		want[name] = addr
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Data, ref.data) || (p.Data == nil) != (ref.data == nil) {
		t.Fatalf("Builder data (%d B, nil %v) differs from the reference (%d B, nil %v)",
			len(p.Data), p.Data == nil, len(ref.data), ref.data == nil)
	}
	for name, addr := range want {
		if p.Labels[name] != addr {
			t.Errorf("label %q at %#x, reference %#x", name, p.Labels[name], addr)
		}
	}
}

// FuzzBuilderData holds the builder's single-assembly data segment to
// the append-based reference on arbitrary allocation sequences. The
// seeds are no data, zero-length allocations, and odd byte runs that
// make the next word allocation pad.
func FuzzBuilderData(f *testing.F) {
	for _, ops := range [][]byte{
		nil,
		{0, 0, 2, 0, 3, 0},
		{3, 3, 'a', 'b', 'c', 0, 1, 42, 0, 0, 0, 0, 0, 0, 0},
		{3, 5, 1, 2, 3, 4, 5, 1, 2, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8, 2, 7, 3, 1, 9},
		{2, 1, 3, 7, 1, 1, 1, 1, 1, 1, 1, 2, 2, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	} {
		f.Add(ops)
	}
	f.Fuzz(diffData)
}

// TestSpaceRejectsNegativeSize: a negative Space is a build error, and
// it does not move later allocations.
func TestSpaceRejectsNegativeSize(t *testing.T) {
	b := NewBuilder("neg")
	b.Words("a", 1)
	b.Space("s", -16)
	if addr := b.Words("b", 2); addr != DataBase+8 {
		t.Errorf("allocation after a negative Space at %#x, want %#x", addr, DataBase+8)
	}
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("builder accepted a negative Space")
	}
}
