package emu

import (
	"encoding/binary"
	"maps"
)

// pageBits selects a 4 KiB page size for the sparse memory image.
const pageBits = 12
const pageSize = 1 << pageBits
const pageMask = pageSize - 1

// Memory is a sparse little-endian byte-addressable memory. Unmapped
// locations read as zero; writes allocate pages on demand.
type Memory struct {
	pages map[uint64]*[pageSize]byte
	dirty map[uint64]bool // pages ever written, for checksumming
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{
		pages: make(map[uint64]*[pageSize]byte),
		dirty: make(map[uint64]bool),
	}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// StoreByte stores one byte at addr.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.page(addr, true)[addr&pageMask] = v
	m.dirty[addr>>pageBits] = true
}

// Read returns n little-endian bytes starting at addr as a uint64
// (n must be 1, 2, 4 or 8). Page-crossing accesses are supported.
func (m *Memory) Read(addr uint64, n int) uint64 {
	off := addr & pageMask
	if p := m.page(addr, false); p != nil && int(off)+n <= pageSize {
		switch n {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low n bytes of v little-endian at addr.
func (m *Memory) Write(addr uint64, n int, v uint64) {
	off := addr & pageMask
	if int(off)+n <= pageSize {
		p := m.page(addr, true)
		m.dirty[addr>>pageBits] = true
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
		m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// clone returns a deep copy of the memory image.
func (m *Memory) clone() *Memory {
	c := &Memory{
		pages: make(map[uint64]*[pageSize]byte, len(m.pages)),
		dirty: maps.Clone(m.dirty),
	}
	for pn, p := range m.pages {
		cp := *p
		c.pages[pn] = &cp
	}
	return c
}

// LoadBytes copies raw into memory starting at addr.
func (m *Memory) LoadBytes(addr uint64, raw []byte) {
	for i, b := range raw {
		m.StoreByte(addr+uint64(i), b)
	}
}

// Checksum mixes every dirty page into a 64-bit FNV-style hash; used by
// tests to assert deterministic final memory state.
func (m *Memory) Checksum() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	// Iterate pages in a deterministic order.
	var pns []uint64
	for pn := range m.dirty {
		pns = append(pns, pn)
	}
	sortU64(pns)
	for _, pn := range pns {
		p := m.pages[pn]
		h = (h ^ pn) * prime
		for _, b := range p {
			h = (h ^ uint64(b)) * prime
		}
	}
	return h
}

func sortU64(s []uint64) {
	// insertion sort; page counts are small
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
