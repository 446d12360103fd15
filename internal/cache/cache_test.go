package cache

import (
	"math/rand"
	"strings"
	"testing"
)

func small() Config { return Config{SizeBytes: 1024, Ways: 2, LineBytes: 64, HitLat: 1} }

func TestMissThenHit(t *testing.T) {
	c := New(small())
	if c.Lookup(0x1000, false) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("fill did not install the line")
	}
	if !c.Lookup(0x1000+63, false) {
		t.Fatal("same-line access missed")
	}
	if c.Lookup(0x1000+64, false) {
		t.Fatal("next line hit without fill")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(small()) // 8 sets, 2 ways
	setStride := uint64(8 * 64)
	a, b, d := uint64(0), setStride, 2*setStride // same set
	c.Fill(a, false)
	c.Fill(b, false)
	c.Lookup(a, false) // touch a: b becomes LRU
	c.Fill(d, false)   // evicts b
	if !c.Lookup(a, false) {
		t.Error("recently used line evicted")
	}
	if c.Lookup(b, false) {
		t.Error("LRU line survived")
	}
	if !c.Lookup(d, false) {
		t.Error("filled line missing")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(small())
	setStride := uint64(8 * 64)
	c.Fill(0, true) // dirty
	c.Fill(setStride, false)
	if wb := c.Fill(2*setStride, false); !wb {
		t.Error("evicting a dirty line did not report a writeback")
	}
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Writebacks)
	}
}

func TestMissRate(t *testing.T) {
	c := New(small())
	c.Lookup(0, false)
	c.Fill(0, false)
	c.Lookup(0, false)
	if r := c.MissRate(); r != 0.5 {
		t.Errorf("miss rate = %f, want 0.5", r)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 1000, Ways: 3, LineBytes: 60},
		{SizeBytes: 1024, Ways: 0, LineBytes: 64},
		{SizeBytes: 65 * 64, Ways: 65, LineBytes: 64}, // one set, but past the age field
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "cache: ") {
					t.Errorf("%+v: panic %q, want a cache geometry panic", cfg, msg)
				}
			}()
			New(cfg)
		}()
	}
	New(Config{SizeBytes: 64 * 64, Ways: 64, LineBytes: 64}) // the largest associativity
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	// Cold load: L1 miss + L2 miss + memory.
	if lat := h.LoadLat(0x100000); lat != 1+12+50 {
		t.Errorf("cold load latency = %d, want 63", lat)
	}
	// Now resident in L1.
	if lat := h.LoadLat(0x100000); lat != 1 {
		t.Errorf("L1 hit latency = %d, want 1", lat)
	}
	// Evict from L1 by filling its set; the line should hit in L2.
	cfg := DefaultHierarchy()
	sets := cfg.L1D.SizeBytes / (cfg.L1D.Ways * cfg.L1D.LineBytes)
	stride := uint64(sets * cfg.L1D.LineBytes)
	h.LoadLat(0x100000 + stride)
	h.LoadLat(0x100000 + 2*stride)
	if lat := h.LoadLat(0x100000); lat != 1+12 {
		t.Errorf("L2 hit latency = %d, want 13", lat)
	}
}

func TestFetchUsesICache(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	if lat := h.FetchLat(0x1000); lat <= 1 {
		t.Error("cold fetch should miss")
	}
	if lat := h.FetchLat(0x1000); lat != 1 {
		t.Errorf("warm fetch latency = %d", lat)
	}
	if h.L1I.Accesses != 2 {
		t.Errorf("L1I accesses = %d", h.L1I.Accesses)
	}
}

func TestStoreAllocates(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	h.StoreLat(0x9000)
	if lat := h.LoadLat(0x9000); lat != 1 {
		t.Errorf("load after store latency = %d, want 1 (write-allocate)", lat)
	}
}

// TestRecycleMatchesFresh recycles one hierarchy across a latency-only
// change and a size change. After each it must report the latencies
// and statistics of a fresh NewHierarchy on the same accesses, and keep
// the arrays of every level whose size did not change.
func TestRecycleMatchesFresh(t *testing.T) {
	access := func(h *Hierarchy) (lats []int, stats [3][3]uint64) {
		for i := uint64(0); i < 4096; i++ {
			addr := (i * 2654435761) % (4 << 20)
			switch i % 3 {
			case 0:
				lats = append(lats, h.LoadLat(addr))
			case 1:
				lats = append(lats, h.StoreLat(addr))
			default:
				lats = append(lats, h.FetchLat(addr&^3))
			}
		}
		for i, c := range []*Cache{h.L1I, h.L1D, h.L2} {
			stats[i] = [3]uint64{c.Accesses, c.Misses, c.Writebacks}
		}
		return lats, stats
	}
	base := DefaultHierarchy()
	latOnly := base
	latOnly.MemLat, latOnly.L2.HitLat = 120, 20
	resized := latOnly
	resized.L2.SizeBytes = 256 << 10

	h := NewHierarchy(base)
	access(h)
	for _, step := range []struct {
		name string
		cfg  HierarchyConfig
		kept [3]bool // L1I, L1D, L2 arrays reused
	}{
		{"latency only", latOnly, [3]bool{true, true, true}},
		{"L2 size", resized, [3]bool{true, true, false}},
	} {
		before := [3]*uint64{&h.L1I.tags[0], &h.L1D.tags[0], &h.L2.tags[0]}
		h = Recycle(h, step.cfg)
		after := [3]*uint64{&h.L1I.tags[0], &h.L1D.tags[0], &h.L2.tags[0]}
		for i := range before {
			if (before[i] == after[i]) != step.kept[i] {
				t.Errorf("%s: level %d arrays kept = %v, want %v", step.name, i, before[i] == after[i], step.kept[i])
			}
		}
		if n := len(h.L2.tags); n != step.cfg.L2.SizeBytes/step.cfg.L2.LineBytes {
			t.Errorf("%s: L2 holds %d entries", step.name, n)
		}
		gotLat, gotStats := access(h)
		wantLat, wantStats := access(NewHierarchy(step.cfg))
		if gotStats != wantStats {
			t.Errorf("%s: stats %v, fresh hierarchy %v", step.name, gotStats, wantStats)
		}
		for i := range wantLat {
			if gotLat[i] != wantLat[i] {
				t.Fatalf("%s: access %d latency %d, fresh hierarchy %d", step.name, i, gotLat[i], wantLat[i])
			}
		}
	}
}

// stampCache is the reference LRU model: per-line valid and dirty flags
// and a 64-bit stamp from a clock that ticks on every Lookup and Fill,
// as the cache stored its lines before the one-byte metadata.
// TestAgeLRUMatchesStamps and FuzzCacheLRU hold Cache to it.
type stampCache struct {
	ways, sets int
	tags       []uint64
	valid      []bool
	dirty      []bool
	stamp      []uint64
	clock      uint64

	accesses, misses, writebacks uint64
}

func newStampCache(ways, sets int) *stampCache {
	n := ways * sets
	return &stampCache{ways: ways, sets: sets, tags: make([]uint64, n),
		valid: make([]bool, n), dirty: make([]bool, n), stamp: make([]uint64, n)}
}

func (c *stampCache) lookup(line uint64, write bool) bool {
	c.clock++
	c.accesses++
	base := int(line) & (c.sets - 1) * c.ways
	for w := base; w < base+c.ways; w++ {
		if c.valid[w] && c.tags[w] == line {
			c.stamp[w] = c.clock
			if write {
				c.dirty[w] = true
			}
			return true
		}
	}
	c.misses++
	return false
}

func (c *stampCache) fill(line uint64, write bool) (writeback bool) {
	c.clock++
	base := int(line) & (c.sets - 1) * c.ways
	victim := base
	best := ^uint64(0)
	for w := base; w < base+c.ways; w++ {
		if !c.valid[w] {
			victim = w
			break
		}
		if c.stamp[w] < best {
			best = c.stamp[w]
			victim = w
		}
	}
	if c.valid[victim] && c.dirty[victim] {
		writeback = true
		c.writebacks++
	}
	c.valid[victim], c.tags[victim], c.dirty[victim] = true, line, write
	c.stamp[victim] = c.clock
	return writeback
}

// diffLRU runs ops against a Cache and the stamp model of the same
// geometry (64-byte lines). Each op's low two bits pick Lookup or Fill,
// read or write; the rest picks one of 2 × ways × sets + 1 lines, so
// sets overflow and evict. Every hit, miss and writeback, and the final
// counters, must agree.
func diffLRU(t *testing.T, ways, sets int, ops []uint16) {
	t.Helper()
	c := New(Config{SizeBytes: ways * sets * 64, Ways: ways, LineBytes: 64})
	ref := newStampCache(ways, sets)
	lines := uint64(2*ways*sets + 1)
	for i, op := range ops {
		line := uint64(op>>2) % lines
		addr := line<<6 | uint64(op)&0x3c
		write := op&1 != 0
		var got, want bool
		if op&2 == 0 {
			got, want = c.Lookup(addr, write), ref.lookup(line, write)
		} else {
			got, want = c.Fill(addr, write), ref.fill(line, write)
		}
		if got != want {
			t.Fatalf("%d-way, %d sets: op %d (%#x) returned %v, stamp model %v", ways, sets, i, op, got, want)
		}
	}
	if c.Accesses != ref.accesses || c.Misses != ref.misses || c.Writebacks != ref.writebacks {
		t.Fatalf("%d-way, %d sets: counters %d/%d/%d, stamp model %d/%d/%d", ways, sets,
			c.Accesses, c.Misses, c.Writebacks, ref.accesses, ref.misses, ref.writebacks)
	}
}

// TestAgeLRUMatchesStamps drives every associativity the age field
// supports with a seeded stream of mixed lookups, fills and writes.
func TestAgeLRUMatchesStamps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= maxWays; ways++ {
		for _, sets := range []int{1, 4} {
			ops := make([]uint16, 4000)
			for i := range ops {
				ops[i] = uint16(rng.Intn(1 << 16))
			}
			diffLRU(t, ways, sets, ops)
		}
	}
}

// FuzzCacheLRU holds the age-LRU cache to the stamp model on arbitrary
// op streams: the first byte picks the associativity, the second the
// set count, and each following byte pair one op.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 6, 1, 10, 2, 0, 0, 14, 3})
	f.Add([]byte{63, 2, 0xff, 0xff, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways, sets := 1+int(data[0])%maxWays, 1<<(data[1]%4)
		ops := make([]uint16, 0, len(data)/2)
		for i := 2; i+1 < len(data); i += 2 {
			ops = append(ops, uint16(data[i])|uint16(data[i+1])<<8)
		}
		diffLRU(t, ways, sets, ops)
	})
}
