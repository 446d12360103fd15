package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/sweep/store"
)

// Cache is the content-addressed result store shared by every sweep
// running in a process (and, through sweepd, by every client of the
// service). Keys are Point.Key hashes; values are complete simulation
// Results. A cache opened on a directory (OpenCache) persists across
// processes, making repeated and overlapping sweeps incremental: only
// points whose (workload, config, scale) content hash is new are
// simulated.
//
// Cached *pipeline.Result values are shared — callers must treat them
// as immutable.
type Cache struct {
	mu  sync.Mutex
	mem map[string]*pipeline.Result

	// store is the segment-log tier behind OpenCache; nil for an
	// in-memory cache. With a store, mem is only a decode cache for
	// results already on disk — every Put appends to the store
	// immediately and Save is one fsync.
	store     *store.Store
	storeErrs uint64

	hits, misses uint64
}

// NewCache returns an empty in-memory cache.
func NewCache() *Cache {
	return &Cache{mem: make(map[string]*pipeline.Result)}
}

// OpenCache opens the persistent cache at dir, a segment-log store
// directory that is created if absent. A path that exists as a
// regular file is refused and left untouched: the cache is always a
// directory. SWEEP_STORE_SEG_BYTES overrides the segment roll size (a
// CI/test hook for forcing many small segments).
func OpenCache(dir string) (*Cache, error) {
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		alt := strings.TrimSuffix(dir, filepath.Ext(dir))
		if alt == dir {
			alt += "-cache"
		}
		return nil, fmt.Errorf("sweep: open cache: %s is a file, but the result cache is a store directory; "+
			"pass a directory path such as %s/", dir, alt)
	}
	var opts store.Options
	if v := os.Getenv("SWEEP_STORE_SEG_BYTES"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			opts.MaxSegmentBytes = n
		}
	}
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	c := NewCache()
	c.store = st
	return c, nil
}

// Get returns the cached result for key, if any. A memory miss probes
// the segment store off the lookup lock, so concurrent Gets never
// stall behind disk. A store hit is cached in memory and counted as a
// hit. A miss re-checks memory before answering: a concurrent Put may
// have landed during the probe, and reporting it as a miss would
// trigger a redundant re-simulation. A record that cannot be read or
// decoded is counted in StoreErrors and tombstoned, so the
// re-simulated result's Put replaces it.
func (c *Cache) Get(key string) (*pipeline.Result, bool) { return c.get(key, 1) }

// Peek is Get without counting a hit or a miss: it reads results that
// were already looked up once, as coordinator replay and sweepd's
// reads of finished sweeps do, so Stats counts only sweeps' lookups.
func (c *Cache) Peek(key string) (*pipeline.Result, bool) { return c.get(key, 0) }

// PeekText is Peek of the key whose text is key: a caller that keeps
// keys as bytes looks up a result in memory without making a string.
func (c *Cache) PeekText(key []byte) (*pipeline.Result, bool) {
	c.mu.Lock()
	r, ok := c.mem[string(key)]
	c.mu.Unlock()
	if ok {
		return r, true
	}
	return c.Peek(string(key))
}

// get is Get adding n to the hit or miss count.
func (c *Cache) get(key string, n uint64) (*pipeline.Result, bool) {
	c.mu.Lock()
	if r, ok := c.mem[key]; ok {
		c.hits += n
		c.mu.Unlock()
		return r, true
	}
	st := c.store
	c.mu.Unlock()

	var bad bool
	if st != nil {
		r, err := load(st, key)
		if r != nil {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.hits += n
			if have, exists := c.mem[key]; exists {
				return have, true // a concurrent Put won the race
			}
			c.mem[key] = r // decode cache only — already durable
			return r, true
		}
		bad = err != nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if bad {
		c.dropUnreadable(st, key)
	}
	if r, ok := c.mem[key]; ok {
		c.hits += n
		return r, true // a concurrent Put landed during the store probe
	}
	c.misses += n
	return nil, false
}

// load reads and decodes key's stored result; (nil, nil) if absent.
func load(st *store.Store, key string) (*pipeline.Result, error) {
	raw, ok, err := st.Get(key)
	if err != nil || !ok {
		return nil, err
	}
	r := new(pipeline.Result)
	if err := json.Unmarshal(raw, r); err != nil {
		return nil, fmt.Errorf("sweep: decode %s: %w", key, err)
	}
	return r, nil
}

// dropUnreadable counts and tombstones key's unreadable store record.
// It reads the record again first: another caller may have replaced or
// dropped it since the failed probe. Called with c.mu held, which every
// store write also takes.
func (c *Cache) dropUnreadable(st *store.Store, key string) {
	if _, err := load(st, key); err == nil {
		return
	}
	c.storeErrs++
	if err := st.Delete(key); err != nil {
		c.storeErrs++
	}
}

// persist makes a freshly added result durable-on-Save: it appends to
// the segment log immediately and the next Save fsyncs. Failures to
// append are counted, not surfaced — the result still serves from
// memory, and a later run re-simulates whatever never reached disk. A
// no-op without a store. Called with c.mu held.
func (c *Cache) persist(key string, r *pipeline.Result) {
	if c.store == nil {
		return
	}
	raw, err := json.Marshal(r)
	if err != nil {
		c.storeErrs++
		return
	}
	if err := c.store.Put(key, raw); err != nil {
		c.storeErrs++
	}
}

// has reports whether key is present in memory or the store. Called
// with c.mu held.
func (c *Cache) has(key string) bool {
	if _, ok := c.mem[key]; ok {
		return true
	}
	return c.store != nil && c.store.Has(key)
}

// Put stores a result. Only successful simulations are ever stored, so
// a failed job never poisons the cache.
func (c *Cache) Put(key string, r *pipeline.Result) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.has(key) {
		c.mem[key] = r
		c.persist(key, r)
	}
}

// Len reports the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store != nil {
		return c.store.Len()
	}
	return len(c.mem)
}

// Save fsyncs the store: every Put already appended its record, so it
// costs one fsync if any came since the last Save, else nothing. A
// failure is counted in StoreErrors. A no-op for an in-memory cache.
func (c *Cache) Save() error {
	c.mu.Lock()
	st := c.store
	c.mu.Unlock()
	if st == nil {
		return nil
	}
	if err := st.Sync(); err != nil {
		c.mu.Lock()
		c.storeErrs++
		c.mu.Unlock()
		return fmt.Errorf("sweep: save cache: %w", err)
	}
	return nil
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Entries int     `json:"entries"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"` // hits / (hits+misses), 0 if no lookups

	// Store reports the segment store's on-disk shape for an opened
	// cache, plus any write-through append failures, unreadable
	// records and failed syncs (best-effort).
	Store       *store.Stats `json:"store,omitempty"`
	StoreErrors uint64       `json:"store_errors,omitempty"`
}

// Stats returns lifetime lookup counters for this cache instance.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{Entries: len(c.mem), Hits: c.hits, Misses: c.misses}
	if n := c.hits + c.misses; n > 0 {
		s.HitRate = float64(c.hits) / float64(n)
	}
	if c.store != nil {
		ss := c.store.Stats()
		s.Entries = ss.Keys
		s.Store = &ss
		s.StoreErrors = c.storeErrs
	}
	return s
}

// exportRecord is one NDJSON line of a cache export: the content key
// and the result's exact stored bytes.
type exportRecord struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// Export streams every cached result to w as NDJSON — one
// {"key":…,"result":…} object per line, in sorted key order so equal
// corpora export byte-identically. Store-backed caches stream straight
// from disk without materializing the corpus in memory.
func (c *Cache) Export(w io.Writer) error {
	c.mu.Lock()
	st := c.store
	var keys []string
	if st == nil {
		keys = make([]string, 0, len(c.mem))
		for k := range c.mem {
			keys = append(keys, k)
		}
	}
	c.mu.Unlock()
	if st != nil {
		keys = st.Keys()
	}
	sort.Strings(keys)

	bw := bufio.NewWriter(w)
	for _, k := range keys {
		var raw json.RawMessage
		if st != nil {
			v, ok, err := st.Get(k)
			if err != nil {
				return fmt.Errorf("sweep: export: %w", err)
			}
			if !ok {
				continue // deleted between listing and read
			}
			raw = v
		} else {
			c.mu.Lock()
			r, ok := c.mem[k]
			c.mu.Unlock()
			if !ok {
				continue
			}
			v, err := json.Marshal(r)
			if err != nil {
				return fmt.Errorf("sweep: export: %w", err)
			}
			raw = v
		}
		line, err := json.Marshal(exportRecord{Key: k, Result: raw})
		if err != nil {
			return fmt.Errorf("sweep: export: %w", err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("sweep: export: %w", err)
	}
	return nil
}

// Import reads an NDJSON export from r, storing each record under its
// key. A result that does not decode is refused. Existing keys are
// skipped unless overwrite is set (counted in skipped). Store-backed
// caches take the result bytes verbatim, so an export/import
// round-trip is byte-preserving; call Save afterwards to make the
// batch durable.
func (c *Cache) Import(r io.Reader, overwrite bool) (added, skipped int, err error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec exportRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return added, skipped, fmt.Errorf("sweep: import: %w", err)
		}
		if rec.Key == "" || len(rec.Result) == 0 {
			return added, skipped, fmt.Errorf("sweep: import: record missing key or result")
		}
		res := new(pipeline.Result)
		if err := json.Unmarshal(rec.Result, res); err != nil {
			return added, skipped, fmt.Errorf("sweep: import %s: %w", rec.Key, err)
		}
		c.mu.Lock()
		if !overwrite && c.has(rec.Key) {
			skipped++
			c.mu.Unlock()
			continue
		}
		if c.store != nil {
			err := c.store.Put(rec.Key, rec.Result)
			delete(c.mem, rec.Key) // drop any stale decode-cache copy
			c.mu.Unlock()
			if err != nil {
				return added, skipped, fmt.Errorf("sweep: import: %w", err)
			}
		} else {
			c.mem[rec.Key] = res
			c.mu.Unlock()
		}
		added++
	}
	return added, skipped, nil
}

// GC removes every cached result whose key the live predicate rejects.
// With a store the dead keys are tombstoned and their segments
// compacted; either way the matching in-memory entries go too. Returns
// the number of keys removed from the authoritative tier.
func (c *Cache) GC(live func(key string) bool) (int, error) {
	c.mu.Lock()
	st := c.store
	removed := 0
	for k := range c.mem {
		if !live(k) {
			delete(c.mem, k)
			if st == nil {
				removed++
			}
		}
	}
	c.mu.Unlock()
	if st != nil {
		return st.GC(live)
	}
	return removed, nil
}

// Compact runs a compaction pass over the segment store (every sealed
// segment when force is set, otherwise only those below the live-ratio
// threshold). A no-op without a store.
func (c *Cache) Compact(force bool) (store.CompactStats, error) {
	c.mu.Lock()
	st := c.store
	c.mu.Unlock()
	if st == nil {
		return store.CompactStats{}, nil
	}
	return st.Compact(force)
}

// Close saves the cache and releases its backing store. Safe on caches
// without one; the cache must not be used afterwards.
func (c *Cache) Close() error {
	err := c.Save()
	c.mu.Lock()
	st := c.store
	c.store = nil
	c.mu.Unlock()
	if st != nil {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
