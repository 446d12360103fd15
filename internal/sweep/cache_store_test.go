package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"earlyrelease/internal/pipeline"
)

// smallGrid keeps the store-mode suite fast: 8 points, one trace decode
// each at the differential suite's scale.
func smallGrid() Grid {
	return Grid{
		Workloads: []string{"tomcatv", "go"},
		Policies:  []string{"conv", "extended"},
		IntRegs:   []int{40, 48},
		Scale:     15_000,
	}
}

// marshalCorpus renders every outcome's result as its cache JSON, the
// byte-level currency the differential assertions compare in.
func marshalCorpus(t *testing.T, res *Results) map[string][]byte {
	t.Helper()
	m := make(map[string][]byte, len(res.Outcomes))
	for _, o := range res.Outcomes {
		blob, err := json.Marshal(o.Result)
		if err != nil {
			t.Fatal(err)
		}
		m[o.Key] = blob
	}
	return m
}

// TestStoreCacheMatchesMemoryCache is the store's differential test:
// the same grid through an in-memory reference cache and a segment-store
// cache must produce byte-identical results, cold and warm, with the
// warm store rerun 100% hits after a reopen.
func TestStoreCacheMatchesMemoryCache(t *testing.T) {
	t.Parallel()
	g := smallGrid()

	refRes, err := (&Engine{Cache: NewCache()}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := refRes.Err(); err != nil {
		t.Fatal(err)
	}

	storeDir := filepath.Join(t.TempDir(), "store")
	storeCache, err := OpenCache(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	storeRes, err := (&Engine{Cache: storeCache}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := storeRes.Err(); err != nil {
		t.Fatal(err)
	}
	if storeRes.Stats.Simulated != storeRes.Stats.Points {
		t.Errorf("store cold run stats wrong: %+v", storeRes.Stats)
	}

	wantBytes := marshalCorpus(t, refRes)
	gotBytes := marshalCorpus(t, storeRes)
	if len(wantBytes) != len(gotBytes) {
		t.Fatalf("corpus sizes differ: memory %d, store %d", len(wantBytes), len(gotBytes))
	}
	for k, want := range wantBytes {
		if got := gotBytes[k]; !bytes.Equal(got, want) {
			t.Errorf("result %s differs between memory and store runs\n got: %s\nwant: %s", k, got, want)
		}
	}
	if err := storeCache.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh open of the store directory: warm rerun is 100% hits, zero
	// simulation, and the served results marshal to the same bytes.
	reopened, err := OpenCache(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != len(wantBytes) {
		t.Fatalf("reopened store has %d entries, want %d", reopened.Len(), len(wantBytes))
	}
	warm, err := (&Engine{Cache: reopened}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits != warm.Stats.Points || warm.Stats.Simulated != 0 {
		t.Errorf("warm store rerun stats wrong: %+v", warm.Stats)
	}
	for k, got := range marshalCorpus(t, warm) {
		if !bytes.Equal(got, wantBytes[k]) {
			t.Errorf("warm result %s drifted from the reference bytes", k)
		}
	}
}

// TestOpenCacheRejectsFile: a path that is a regular file (such as a
// cache.json from the retired single-file format) is refused with an
// error naming the directory form, and its bytes are left alone.
func TestOpenCacheRejectsFile(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "cache.json")
	want := []byte(`{"k":{"cycles":1}}`)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path)
	if err == nil {
		c.Close()
		t.Fatal("OpenCache accepted a regular file")
	}
	if msg := err.Error(); !strings.Contains(msg, "directory") || !strings.Contains(msg, path) {
		t.Errorf("error %q does not name the file and the directory form", msg)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("OpenCache modified the file: %q", got)
	}
}

// TestCacheExportImportRoundTrip proves export → import into a fresh
// store reproduces the exact stream, and that import honors the
// skip/overwrite contract.
func TestCacheExportImportRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	src, err := OpenCache(filepath.Join(dir, "src"))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	res, err := (&Engine{Cache: src}).Run(smallGrid(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}

	var first bytes.Buffer
	if err := src.Export(&first); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 {
		t.Fatal("export produced no bytes")
	}

	dst, err := OpenCache(filepath.Join(dir, "dst"))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	added, skipped, err := dst.Import(bytes.NewReader(first.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if added != src.Len() || skipped != 0 {
		t.Fatalf("import added %d skipped %d, want %d/0", added, skipped, src.Len())
	}
	var second bytes.Buffer
	if err := dst.Export(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("export → import → export is not byte-identical")
	}

	// Re-importing skips everything; -import-overwrite re-adds.
	added, skipped, err = dst.Import(bytes.NewReader(first.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || skipped != src.Len() {
		t.Fatalf("re-import added %d skipped %d, want 0/%d", added, skipped, src.Len())
	}
	added, _, err = dst.Import(bytes.NewReader(first.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	if added != src.Len() {
		t.Fatalf("overwrite import added %d, want %d", added, src.Len())
	}
	// Overwriting doubled the records; compaction shrinks the store
	// back without changing the corpus.
	if _, err := dst.Compact(true); err != nil {
		t.Fatal(err)
	}
	var third bytes.Buffer
	if err := dst.Export(&third); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), third.Bytes()) {
		t.Error("compaction after overwrite import changed the corpus")
	}
}

// TestStoreCacheSaveIsIncremental: Save after one new Put must not
// rewrite the corpus — on-disk bytes grow by one record, not double.
func TestStoreCacheSaveIsIncremental(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "store")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res := &pipeline.Result{Cycles: 1, Committed: 100}
	for i := 0; i < 50; i++ {
		c.Put(strings.Repeat("k", 8)+string(rune('a'+i%26))+string(rune('a'+i/26)), res)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)

	c.Put("one-more-key", res)
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	after := dirBytes(t, dir)

	blob, _ := json.Marshal(res)
	// One frame: varint length + type byte + key framing + value + CRC.
	maxGrowth := int64(len(blob)) + 64
	if growth := after - before; growth <= 0 || growth > maxGrowth {
		t.Errorf("save after one put grew the store by %d bytes (want (0, %d]): not O(1)",
			growth, maxGrowth)
	}
}

func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestStoreCacheConcurrent drives Get/Put/Save/Stats from many
// goroutines; with -race this is the cache-over-store race check.
func TestStoreCacheConcurrent(t *testing.T) {
	t.Parallel()
	c, err := OpenCache(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res := &pipeline.Result{Cycles: 7}
	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := strings.Repeat("x", 4) + string(rune('a'+w)) + string(rune('a'+i%26))
				c.Put(key, res)
				if _, ok := c.Get(key); !ok {
					t.Errorf("lost own write %q", key)
					return
				}
				if i%10 == 0 {
					if err := c.Save(); err != nil {
						t.Errorf("Save: %v", err)
						return
					}
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	// Every Get follows its own Put, so each one is a hit: a lookup that
	// raced another writer's Put or Save must never count as a miss.
	if st := c.Stats(); st.Misses != 0 || st.Hits != writers*perWriter {
		t.Errorf("counters skewed under concurrency: hits=%d misses=%d, want %d/0",
			st.Hits, st.Misses, writers*perWriter)
	}
}

// TestCacheGC checks the in-memory and store-backed caches both drop
// exactly the keys the predicate rejects.
func TestCacheGC(t *testing.T) {
	t.Parallel()
	res := &pipeline.Result{Cycles: 3}
	for _, mode := range []string{"memory", "store"} {
		c := NewCache()
		if mode == "store" {
			var err error
			if c, err = OpenCache(filepath.Join(t.TempDir(), "store")); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []string{"keep-a", "keep-b", "drop-a", "drop-b", "drop-c"} {
			c.Put(k, res)
		}
		removed, err := c.GC(func(k string) bool { return strings.HasPrefix(k, "keep-") })
		if err != nil {
			t.Fatalf("%s: GC: %v", mode, err)
		}
		if removed != 3 || c.Len() != 2 {
			t.Errorf("%s: GC removed %d (len %d), want 3 (len 2)", mode, removed, c.Len())
		}
		if _, ok := c.Get("drop-a"); ok {
			t.Errorf("%s: dropped key still served", mode)
		}
		if _, ok := c.Get("keep-a"); !ok {
			t.Errorf("%s: kept key lost", mode)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnreadableRecordIsReplaced: a stored record that cannot be
// decoded, or whose bytes fail their checksum, reads as a miss that is
// counted in StoreErrors, and the re-simulated result's Put replaces
// it, so the next lookup hits.
func TestUnreadableRecordIsReplaced(t *testing.T) {
	t.Parallel()
	res := &pipeline.Result{Cycles: 11, Committed: 7}
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, c *Cache, dir, key string)
	}{
		{"undecodable", func(t *testing.T, c *Cache, dir, key string) {
			if err := c.store.Put(key, []byte("[1]")); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad checksum", func(t *testing.T, c *Cache, dir, key string) {
			c.Put(key, res)
			if err := c.Save(); err != nil {
				t.Fatal(err)
			}
			c.mu.Lock()
			delete(c.mem, key) // force the next Get to read the disk
			c.mu.Unlock()
			segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
			if len(segs) != 1 {
				t.Fatalf("%d segments, want 1", len(segs))
			}
			f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			fi, _ := f.Stat()
			if _, err := f.WriteAt([]byte{0xff}, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		const key = "spoiled"
		tc.spoil(t, c, dir, key)
		for round := 1; round <= 3; round++ {
			r, ok := c.Get(key)
			if round == 1 {
				if ok {
					t.Fatalf("%s: Get served an unreadable record as %+v", tc.name, r)
				}
				if n := c.Stats().StoreErrors; n != 1 {
					t.Errorf("%s: StoreErrors = %d after an unreadable record, want 1", tc.name, n)
				}
				c.Put(key, res)
				// A second Get whose probe failed before this Put must
				// leave the replacement alone.
				c.mu.Lock()
				c.dropUnreadable(c.store, key)
				c.mu.Unlock()
				continue
			}
			if !ok || r.Cycles != res.Cycles || r.Committed != res.Committed {
				t.Fatalf("%s: round %d Get after the re-simulated Put = %+v, %v", tc.name, round, r, ok)
			}
			c.mu.Lock()
			delete(c.mem, key) // the next round reads the store again
			c.mu.Unlock()
		}
		if n := c.Stats().StoreErrors; n != 1 {
			t.Errorf("%s: StoreErrors = %d after the record was replaced, want 1", tc.name, n)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestImportRefusesUndecodableResult: an export line whose result is
// not a pipeline.Result is refused before it reaches the store.
func TestImportRefusesUndecodableResult(t *testing.T) {
	t.Parallel()
	for _, mode := range []string{"memory", "store"} {
		c := NewCache()
		if mode == "store" {
			var err error
			if c, err = OpenCache(filepath.Join(t.TempDir(), "store")); err != nil {
				t.Fatal(err)
			}
		}
		added, _, err := c.Import(strings.NewReader(`{"key":"k","result":[1]}`+"\n"), false)
		if err == nil || !strings.Contains(err.Error(), "import k") {
			t.Errorf("%s: Import of an undecodable result: err %v", mode, err)
		}
		if added != 0 || c.Len() != 0 {
			t.Errorf("%s: Import added %d (len %d) from an undecodable result", mode, added, c.Len())
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
