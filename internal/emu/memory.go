package emu

import (
	"encoding/binary"
	"slices"
)

// pageBits selects a 4 KiB page size for the sparse memory image.
const pageBits = 12
const pageSize = 1 << pageBits
const pageMask = pageSize - 1

// Memory is a sparse little-endian byte-addressable memory over a base
// image, the program's data segment, which it reads in place and never
// writes. Locations outside the base read as zero until written. The
// first write to a page gives it a private copy, holding the base's
// bytes where the page overlaps it, so a clone shares the base and
// copies only the pages written so far.
type Memory struct {
	base   []byte                     // initial contents at baseAt
	baseAt uint64                     // address of base[0]
	pages  map[uint64]*[pageSize]byte // pages written, by page number
}

// NewMemory returns a memory holding data at addr. The memory reads
// data in place, so data must not change while the memory is in use.
func NewMemory(addr uint64, data []byte) *Memory {
	return &Memory{base: data, baseAt: addr, pages: make(map[uint64]*[pageSize]byte)}
}

// inBase returns the offset of the n bytes at addr in the base, and
// whether they all lie inside it.
func (m *Memory) inBase(addr uint64, n int) (uint64, bool) {
	o := addr - m.baseAt
	return o, addr >= m.baseAt && o < uint64(len(m.base)) && uint64(len(m.base))-o >= uint64(n)
}

// fill copies into p the base's bytes that fall in page pn.
func (m *Memory) fill(p *[pageSize]byte, pn uint64) {
	lo := pn << pageBits
	if from, to := max(lo, m.baseAt), min(lo+pageSize, m.baseAt+uint64(len(m.base))); from < to {
		copy(p[from-lo:], m.base[from-m.baseAt:to-m.baseAt])
	}
}

// written returns the private copy of the page holding addr, making it
// on the first write.
func (m *Memory) written(addr uint64) *[pageSize]byte {
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil {
		p = new([pageSize]byte)
		m.fill(p, pn)
		m.pages[pn] = p
	}
	return p
}

func (m *Memory) loadByte(addr uint64) byte {
	if p := m.pages[addr>>pageBits]; p != nil {
		return p[addr&pageMask]
	}
	if o, ok := m.inBase(addr, 1); ok {
		return m.base[o]
	}
	return 0
}

// Read returns n little-endian bytes starting at addr as a uint64
// (n must be 1, 2, 4 or 8). Page-crossing accesses are supported.
func (m *Memory) Read(addr uint64, n int) uint64 {
	var b []byte
	if off := addr & pageMask; int(off)+n <= pageSize {
		if p := m.pages[addr>>pageBits]; p != nil {
			b = p[off:]
		} else if o, ok := m.inBase(addr, n); ok {
			b = m.base[o:]
		}
	}
	switch {
	case b == nil:
	case n == 1:
		return uint64(b[0])
	case n == 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case n == 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case n == 8:
		return binary.LittleEndian.Uint64(b)
	}
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(m.loadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low n bytes of v little-endian at addr.
func (m *Memory) Write(addr uint64, n int, v uint64) {
	off := addr & pageMask
	if int(off)+n <= pageSize {
		p := m.written(addr)
		switch n {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	for i := 0; i < n; i++ {
		a := addr + uint64(i)
		m.written(a)[a&pageMask] = byte(v >> (8 * i))
	}
}

// clone returns an independent copy of the memory image: the base is
// shared, the written pages are copied.
func (m *Memory) clone() *Memory {
	c := &Memory{base: m.base, baseAt: m.baseAt, pages: make(map[uint64]*[pageSize]byte, len(m.pages))}
	for pn, p := range m.pages {
		cp := *p
		c.pages[pn] = &cp
	}
	return c
}

// Checksum mixes every page the base overlaps or a write reached into a
// 64-bit FNV-style hash; used by tests to assert deterministic final
// memory state.
func (m *Memory) Checksum() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	// Iterate pages in a deterministic order.
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	if len(m.base) > 0 {
		last := (m.baseAt + uint64(len(m.base)) - 1) >> pageBits
		for pn := m.baseAt >> pageBits; pn <= last; pn++ {
			if m.pages[pn] == nil {
				pns = append(pns, pn)
			}
		}
	}
	slices.Sort(pns)
	var scratch [pageSize]byte
	for _, pn := range pns {
		p := m.pages[pn]
		if p == nil {
			scratch = [pageSize]byte{}
			m.fill(&scratch, pn)
			p = &scratch
		}
		h = (h ^ pn) * prime
		for _, b := range p {
			h = (h ^ uint64(b)) * prime
		}
	}
	return h
}
