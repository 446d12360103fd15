package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOptions keeps segments tiny so every test exercises rolling,
// multi-segment scans, and compaction, and disables the background
// compactor so tests control when rewrites happen.
func testOptions() Options {
	return Options{MaxSegmentBytes: 256, CompactInterval: -1}
}

func openTest(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func put(t *testing.T, s *Store, key, val string) {
	t.Helper()
	if err := s.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func get(t *testing.T, s *Store, key string) (string, bool) {
	t.Helper()
	v, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	return string(v), ok
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	defer s.Close()

	for i := 0; i < 100; i++ {
		put(t, s, fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i))
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := get(t, s, fmt.Sprintf("key-%03d", i))
		if !ok || v != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("key-%03d: got (%q, %v)", i, v, ok)
		}
	}
	if _, ok := get(t, s, "absent"); ok {
		t.Fatal("absent key reported present")
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	for i := 0; i < 50; i++ {
		put(t, s, fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i))
	}
	put(t, s, "key-007", "overwritten") // later record must win on replay
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = openTest(t, dir)
	defer s.Close()
	if s.Len() != 50 {
		t.Fatalf("Len after reopen = %d, want 50", s.Len())
	}
	if v, ok := get(t, s, "key-007"); !ok || v != "overwritten" {
		t.Fatalf("key-007 after reopen: got (%q, %v), want overwritten", v, ok)
	}
	if v, ok := get(t, s, "key-042"); !ok || v != "value-042" {
		t.Fatalf("key-042 after reopen: got (%q, %v)", v, ok)
	}
}

// TestTornTailTruncatedOnReopen simulates a crash mid-append: garbage
// at the active segment's tail must be dropped and truncated on
// reopen, with every record before the tear still served. The same
// garbage at a sealed segment's tail is ignored but left in place:
// sealed segments are never truncated.
func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	for i := 0; i < 20; i++ {
		put(t, s, fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear every segment: append half a plausible frame.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("glob segments: %v (%d)", err, len(segs))
	}
	sizes := map[string]int64{}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		sizes[seg] = fi.Size()
		f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x40, 'P', 0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	s = openTest(t, dir)
	defer s.Close()
	if s.Len() != 20 {
		t.Fatalf("Len after torn reopen = %d, want 20", s.Len())
	}
	for i := 0; i < 20; i++ {
		if v, ok := get(t, s, fmt.Sprintf("key-%03d", i)); !ok || v != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("key-%03d after torn reopen: got (%q, %v)", i, v, ok)
		}
	}
	sort.Strings(segs)
	for i, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		want := sizes[seg] + 4 // a sealed segment keeps its tail
		if i == len(segs)-1 {
			want = sizes[seg]
		}
		if fi.Size() != want {
			t.Fatalf("%s: size %d, want %d", seg, fi.Size(), want)
		}
	}
	// The store must still accept appends onto the truncated tails.
	put(t, s, "post-tear", "ok")
	if v, ok := get(t, s, "post-tear"); !ok || v != "ok" {
		t.Fatalf("post-tear append: got (%q, %v)", v, ok)
	}
}

// TestCompactionPreservesLiveBytes overwrites most keys (leaving the
// early segments mostly dead), compacts, and checks every live value is
// byte-identical, segment files shrank, and a reopen still agrees.
func TestCompactionPreservesLiveBytes(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	want := map[string]string{}
	for round := 0; round < 5; round++ {
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v := fmt.Sprintf("value-%03d-round-%d", i, round)
			put(t, s, k, v)
			want[k] = v
		}
	}
	before := s.Stats()
	cs, err := s.Compact(true)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if cs.Segments == 0 || cs.Reclaimed == 0 {
		t.Fatalf("Compact reclaimed nothing: %+v (stats before %+v)", cs, before)
	}
	after := s.Stats()
	if after.Bytes >= before.Bytes {
		t.Fatalf("compaction did not shrink: %d -> %d bytes", before.Bytes, after.Bytes)
	}
	if after.Keys != len(want) {
		t.Fatalf("Keys after compact = %d, want %d", after.Keys, len(want))
	}
	check := func(s *Store, when string) {
		t.Helper()
		for k, v := range want {
			got, ok, err := s.Get(k)
			if err != nil || !ok || !bytes.Equal(got, []byte(v)) {
				t.Fatalf("%s: %s = (%q, %v, %v), want %q", when, k, got, ok, err, v)
			}
		}
	}
	check(s, "after compact")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s = openTest(t, dir)
	defer s.Close()
	check(s, "after compact+reopen")
}

// TestDeleteSurvivesCompactionAndReopen covers the tombstone bound: a
// deleted key must stay deleted across compaction passes (which move
// tombstones forward) and reopen, while a re-put after delete wins.
func TestDeleteSurvivesCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	for i := 0; i < 30; i++ {
		put(t, s, fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i))
	}
	for i := 0; i < 30; i += 2 {
		if err := s.Delete(fmt.Sprintf("key-%03d", i)); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	put(t, s, "key-004", "resurrected") // re-put after delete must win
	if _, err := s.Compact(true); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, err := s.Compact(true); err != nil { // second pass moves tombstones again
		t.Fatalf("Compact 2: %v", err)
	}
	verify := func(s *Store, when string) {
		t.Helper()
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v, ok := get(t, s, k)
			switch {
			case k == "key-004":
				if !ok || v != "resurrected" {
					t.Fatalf("%s: %s = (%q, %v), want resurrected", when, k, v, ok)
				}
			case i%2 == 0:
				if ok {
					t.Fatalf("%s: deleted %s resurfaced as %q", when, k, v)
				}
			default:
				if !ok || v != fmt.Sprintf("value-%03d", i) {
					t.Fatalf("%s: %s = (%q, %v)", when, k, v, ok)
				}
			}
		}
	}
	verify(s, "after compact")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s = openTest(t, dir)
	defer s.Close()
	verify(s, "after reopen")
}

func TestGC(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	defer s.Close()
	for i := 0; i < 40; i++ {
		put(t, s, fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i))
	}
	removed, err := s.GC(func(k string) bool { return k >= "key-020" })
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if removed != 20 {
		t.Fatalf("GC removed %d, want 20", removed)
	}
	if s.Len() != 20 {
		t.Fatalf("Len after GC = %d, want 20", s.Len())
	}
	if _, ok := get(t, s, "key-005"); ok {
		t.Fatal("GC'd key still present")
	}
	if v, ok := get(t, s, "key-030"); !ok || v != "value-030" {
		t.Fatalf("kept key lost: (%q, %v)", v, ok)
	}
}

// TestConcurrentUse hammers Put/Get/Sync from many goroutines; run
// under -race this is the store's data-race check.
func TestConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 1024, CompactInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				if err := s.Put(k, []byte(fmt.Sprintf("v-%d-%d", w, i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, _, err := s.Get(fmt.Sprintf("w%d-k%d", w, rng.Intn(i+1))); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if i%10 == 0 {
					if err := s.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
					if _, err := s.Compact(false); err != nil {
						t.Errorf("Compact: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", s.Len(), workers*perWorker)
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 128, CompactInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 30; i++ {
		put(t, s, fmt.Sprintf("key-%03d", i), "0123456789012345678901234567890123456789")
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected ≥3 segment files, got %d", len(segs))
	}
}

// TestEmptyStoreWritesNothing opens and closes a store without a
// write: it leaves the directory empty, so a fresh start syncs nothing.
func TestEmptyStoreWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("an empty store left %d files, the first %s", len(ents), ents[0].Name())
	}
}

// TestOpenRefusesShardedStore: a directory holding MANIFEST.json was
// written by the key-hash-sharded layout. Open must refuse it with an
// error naming the manifest, and leave every byte of it alone.
func TestOpenRefusesShardedStore(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"MANIFEST.json": `{"version":1,"shards":16}`,
		"00-000001.seg": "\x05Pabcd\x00\x00\x00\x00",
		"0f-000002.seg": "torn",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, testOptions())
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a sharded store directory")
	}
	if mpath := filepath.Join(dir, "MANIFEST.json"); !strings.Contains(err.Error(), mpath) {
		t.Errorf("error %q does not name %s", err, mpath)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(files) {
		t.Errorf("directory holds %d files after Open, want %d", len(ents), len(files))
	}
	for name, want := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != want {
			t.Errorf("%s after Open = %q, %v; want %q", name, got, err, want)
		}
	}
}

// TestFailedSyncStaysDirty: a Sync whose fsync fails must leave the
// store dirty, so the next Sync (the next cache Save) fails as well
// instead of reporting unsynced records as durable.
func TestFailedSyncStaysDirty(t *testing.T) {
	s := openTest(t, t.TempDir())
	defer s.Close()
	put(t, s, "k", "v")
	if err := s.active.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Sync(); err == nil {
			t.Fatalf("Sync %d succeeded on a closed segment", i+1)
		}
		if !s.dirty {
			t.Fatalf("Sync %d failed but marked the store clean", i+1)
		}
	}
}

// TestSealedSegmentSkipsCorruptRecord flips one byte inside the first
// record of a sealed segment. Reopening loses exactly that record and
// leaves the file as it is, and a forced compaction carries every
// intact record of the segment forward.
func TestSealedSegmentSkipsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	const n = 20
	for i := 0; i < n; i++ {
		put(t, s, fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(dir, "000001.seg")
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "000002.seg")); err != nil {
		t.Fatalf("want a second segment, so the first is sealed: %v", err)
	}
	data[5] ^= 0xff // inside the first record's key
	if err := os.WriteFile(sealed, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir)
	defer s.Close()
	if s.Len() != n-1 {
		t.Fatalf("Len after reopen = %d, want %d", s.Len(), n-1)
	}
	if fi, err := os.Stat(sealed); err != nil || fi.Size() != int64(len(data)) {
		t.Fatalf("sealed segment changed size: %v, %v; want %d", fi.Size(), err, len(data))
	}
	inSealed := 0
	for _, r := range s.index {
		if r.seq == 1 {
			inSealed++
		}
	}
	st, err := s.Compact(true)
	if err != nil {
		t.Fatal(err)
	}
	if st.CopiedKey != inSealed || inSealed == 0 {
		t.Fatalf("compaction copied %d records, want the %d intact ones", st.CopiedKey, inSealed)
	}
	for i := 1; i < n; i++ {
		if v, ok := get(t, s, fmt.Sprintf("key-%03d", i)); !ok || v != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("key-%03d after compaction: got (%q, %v)", i, v, ok)
		}
	}
	if _, ok := get(t, s, "key-000"); ok {
		t.Fatal("the corrupt record is served")
	}
}

// TestWritesAfterCloseFail: Put and Delete on a closed store return an
// error and create no segment.
func TestWritesAfterCloseFail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	put(t, s, "k", "v")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", []byte("v")); err == nil {
		t.Error("Put after Close succeeded")
	}
	for _, key := range []string{"k", "absent"} {
		if err := s.Delete(key); err == nil {
			t.Errorf("Delete(%s) after Close succeeded", key)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(segs) != 1 {
		t.Fatalf("directory holds %d segments, want 1", len(segs))
	}
}
