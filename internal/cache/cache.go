// Package cache implements the simulated memory hierarchy: set-
// associative LRU caches composed into the L1I/L1D/L2/main-memory
// configuration of Table 2 of the paper.
//
// The model is latency-only (no bandwidth contention or MSHR limits);
// misses are non-blocking from the pipeline's point of view, which
// matches the out-of-order SimpleScalar configuration the paper uses.
package cache

import "fmt"

// Config describes one cache level. SizeBytes / (Ways × LineBytes) sets
// and LineBytes must be powers of two, and Ways at most 64 (the largest
// associativity a line's age field orders).
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
	HitLat    int // cycles for a hit at this level
}

// Line metadata: one byte per line holds the valid and dirty bits and
// the line's LRU age within its set (0 = most recently used).
const (
	lineValid uint8 = 0x80
	lineDirty uint8 = 0x40
	lineAge   uint8 = 0x3f
	maxWays         = int(lineAge) + 1
)

// Cache is one set-associative level with LRU replacement. The way
// state is stored flat ([set*Ways+way]) so building a cache is a
// handful of allocations regardless of geometry — the sweep engine
// constructs hierarchies per point, and a 1 MB L2 as per-set slices
// costs tens of thousands of small allocations. A line costs 9 bytes:
// its tag and its metadata byte. The valid lines of a set hold the
// ages 0..k-1, so age order is exactly recency order.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	tags     []uint64
	meta     []uint8

	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// New builds a cache from its configuration. It panics on a non-sensical
// geometry (sizes must divide evenly and be powers of two).
func New(cfg Config) *Cache { return recycle(nil, cfg) }

// recycle returns a cache for cfg in its post-New state. It reuses c's
// arrays when they hold exactly sets × ways entries, whatever else in
// the configuration changed; otherwise it allocates them at the exact
// size, so a smaller level never keeps a larger one's arrays.
func recycle(c *Cache, cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.Ways > maxWays || cfg.LineBytes <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	if sets <= 0 || sets&(sets-1) != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: non power-of-two geometry %+v (sets=%d)", cfg, sets))
	}
	n := sets * cfg.Ways
	if c != nil && len(c.tags) == n {
		c.reset()
	} else {
		c = &Cache{tags: make([]uint64, n), meta: make([]uint8, n)}
	}
	c.cfg, c.sets, c.lineBits = cfg, sets, log2(cfg.LineBytes)
	return c
}

func log2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Lookup probes the cache without modifying contents (except LRU ages
// on a hit). It returns true on hit.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	c.Accesses++
	set := int(addr>>c.lineBits) & (c.sets - 1)
	tag := addr >> c.lineBits
	base := set * c.cfg.Ways
	for w := base; w < base+c.cfg.Ways; w++ {
		if m := c.meta[w]; m&lineValid != 0 && c.tags[w] == tag {
			if write {
				c.meta[w] = m | lineDirty
			}
			if age := m & lineAge; age != 0 {
				c.promote(base, w, age)
			}
			return true
		}
	}
	c.Misses++
	return false
}

// Fill allocates a line for addr in the set's first invalid way, or else
// in its LRU way (age Ways-1), which it evicts. It reports whether a
// dirty line was written back.
func (c *Cache) Fill(addr uint64, write bool) (writeback bool) {
	set := int(addr>>c.lineBits) & (c.sets - 1)
	tag := addr >> c.lineBits
	base := set * c.cfg.Ways
	lru := uint8(c.cfg.Ways - 1)
	victim := base
	for w := base; w < base+c.cfg.Ways; w++ {
		m := c.meta[w]
		if m&lineValid == 0 {
			victim = w
			break
		}
		if m&lineAge == lru {
			victim = w
			if m&lineDirty != 0 {
				writeback = true
				c.Writebacks++
			}
			break
		}
	}
	// Promoting from age Ways-1 ages every other valid way: all are
	// younger than the LRU way, and a set with an invalid way holds
	// fewer than Ways valid ones, aged at most Ways-2.
	c.tags[victim] = tag
	c.promote(base, victim, lru)
	c.meta[victim] = lineValid
	if write {
		c.meta[victim] |= lineDirty
	}
	return writeback
}

// promote makes way w, of age age, the most recently used of the set
// at base: every valid way younger than it ages by one and w's age
// becomes 0.
func (c *Cache) promote(base, w int, age uint8) {
	for v := base; v < base+c.cfg.Ways; v++ {
		if m := c.meta[v]; m&lineValid != 0 && m&lineAge < age {
			c.meta[v] = m + 1
		}
	}
	c.meta[w] &^= lineAge
}

// reset restores the cache to its post-New state, keeping the arrays.
func (c *Cache) reset() {
	clear(c.tags)
	clear(c.meta)
	c.Accesses, c.Misses, c.Writebacks = 0, 0, 0
}

// MissRate returns the observed miss ratio.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// HierarchyConfig sizes the whole memory system.
type HierarchyConfig struct {
	L1I    Config
	L1D    Config
	L2     Config
	MemLat int
}

// DefaultHierarchy returns the Table 2 memory system: 32 KB 2-way L1I
// (32 B lines, 1 cycle), 32 KB 2-way L1D (64 B lines, 1 cycle), 1 MB
// 2-way unified L2 (64 B lines, 12 cycles) and 50-cycle main memory.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:    Config{SizeBytes: 32 << 10, Ways: 2, LineBytes: 32, HitLat: 1},
		L1D:    Config{SizeBytes: 32 << 10, Ways: 2, LineBytes: 64, HitLat: 1},
		L2:     Config{SizeBytes: 1 << 20, Ways: 2, LineBytes: 64, HitLat: 12},
		MemLat: 50,
	}
}

// Hierarchy composes the cache levels. The unified L2 backs both L1s.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	cfg HierarchyConfig
}

// NewHierarchy builds the full memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1I: New(cfg.L1I),
		L1D: New(cfg.L1D),
		L2:  New(cfg.L2),
		cfg: cfg,
	}
}

// Recycle returns a hierarchy for cfg, reusing each of h's levels whose
// tag/state arrays (about 160 KB for the Table 2 geometry) have the size
// the new level needs; latencies alone never force a reallocation. The
// returned hierarchy is indistinguishable from a fresh NewHierarchy.
func Recycle(h *Hierarchy, cfg HierarchyConfig) *Hierarchy {
	if h == nil {
		return NewHierarchy(cfg)
	}
	h.L1I = recycle(h.L1I, cfg.L1I)
	h.L1D = recycle(h.L1D, cfg.L1D)
	h.L2 = recycle(h.L2, cfg.L2)
	h.cfg = cfg
	return h
}

// access runs the common L1 -> L2 -> memory latency walk.
func (h *Hierarchy) access(l1 *Cache, addr uint64, write bool) int {
	lat := l1.cfg.HitLat
	if l1.Lookup(addr, write) {
		return lat
	}
	lat += h.L2.cfg.HitLat
	if !h.L2.Lookup(addr, false) {
		lat += h.cfg.MemLat
		h.L2.Fill(addr, false)
	}
	l1.Fill(addr, write)
	return lat
}

// FetchLat returns the latency of an instruction fetch at addr.
func (h *Hierarchy) FetchLat(addr uint64) int { return h.access(h.L1I, addr, false) }

// LoadLat returns the latency of a data load at addr.
func (h *Hierarchy) LoadLat(addr uint64) int { return h.access(h.L1D, addr, false) }

// StoreLat returns the latency of a data store at addr (write-allocate,
// write-back; stores retire through a store buffer so the pipeline does
// not stall on this latency).
func (h *Hierarchy) StoreLat(addr uint64) int { return h.access(h.L1D, addr, true) }

// LineBytesI returns the instruction-cache line size (fetch alignment).
func (h *Hierarchy) LineBytesI() int { return h.cfg.L1I.LineBytes }
