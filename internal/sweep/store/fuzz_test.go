package store

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// Operation codes of FuzzStoreOps: the low three bits of an op byte.
const (
	fzPut = iota
	fzDelete
	fzGC
	fzSync
	fzCompact
	fzReopen
	fzPut2 // a second put code, so writes outnumber the other ops
	fzPut3
)

const fzKeys = 6

// fzOp encodes one FuzzStoreOps operation as its two input bytes.
func fzOp(code, key, arg byte) []byte { return []byte{key<<3 | code, arg} }

// FuzzStoreOps runs random Put, Delete, GC, Sync, Compact and
// close-and-reopen operations on a store whose segments roll every
// 128–256 bytes, and after every operation compares Get, Len and Keys
// with a map holding what the store should contain.
//
// Input: the first byte picks the segment size; then two bytes per
// operation, an op byte (low three bits the code, the rest the key)
// and an argument (the value's length for a put, the force flag for a
// compaction, the mask of keys kept for a GC).
func FuzzStoreOps(f *testing.F) {
	seed := func(size byte, ops ...[]byte) []byte {
		b := []byte{size}
		for _, op := range ops {
			b = append(b, op...)
		}
		return b
	}
	f.Add(seed(0, fzOp(fzPut, 0, 40), fzOp(fzPut, 1, 90), fzOp(fzPut, 0, 10), fzOp(fzSync, 0, 0),
		fzOp(fzReopen, 0, 0), fzOp(fzCompact, 0, 1)))
	f.Add(seed(0, fzOp(fzPut, 0, 60), fzOp(fzPut, 1, 60), fzOp(fzPut, 2, 60), fzOp(fzDelete, 1, 0),
		fzOp(fzPut, 3, 60), fzOp(fzCompact, 0, 1), fzOp(fzPut, 1, 5), fzOp(fzCompact, 0, 1),
		fzOp(fzReopen, 0, 0)))
	f.Add(seed(0, fzOp(fzPut, 0, 30), fzOp(fzPut, 1, 30), fzOp(fzPut, 2, 30), fzOp(fzPut, 3, 30),
		fzOp(fzPut, 4, 30), fzOp(fzGC, 0, 0b10101), fzOp(fzReopen, 0, 0), fzOp(fzPut, 0, 70),
		fzOp(fzGC, 0, 0), fzOp(fzReopen, 0, 0)))
	f.Add(seed(0, fzOp(fzPut, 5, 200), fzOp(fzDelete, 5, 0), fzOp(fzCompact, 0, 0), fzOp(fzPut, 5, 0),
		fzOp(fzReopen, 0, 0), fzOp(fzDelete, 5, 0), fzOp(fzCompact, 0, 1), fzOp(fzReopen, 0, 0)))
	// Two puts of one key in a segment that GC's compaction then
	// rewrites: only the newer may be carried forward.
	f.Add(seed(48, fzOp(fzPut, 0, 65), fzOp(fzPut, 0, 48), fzOp(fzPut, 1, 48), fzOp(fzGC, 0, 0b110001)))
	// A tombstone carried forward by compaction must still kill the
	// put it deletes on reopen, so compaction may drop it only once no
	// older sealed segment remains.
	f.Add(seed(49, fzOp(fzPut, 2, 48), fzOp(fzPut, 0, 244), fzOp(fzPut, 0, 90), fzOp(fzCompact, 0, 1),
		fzOp(fzGC, 0, 0b110001), fzOp(fzPut, 1, 223), fzOp(fzCompact, 0, 0), fzOp(fzReopen, 0, 0)))
	// A put written after its key's tombstone must survive a reopen:
	// the tombstone's bound confines it to older segments.
	f.Add(seed(120, fzOp(fzPut, 1, 48), fzOp(fzPut, 5, 219), fzOp(fzGC, 0, 0b1000010), fzOp(fzPut, 5, 48),
		fzOp(fzGC, 0, 0b110010), fzOp(fzReopen, 0, 0)))

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		if len(in) > 129 {
			in = in[:129] // 64 operations keep each input's fsyncs few
		}
		dir := t.TempDir()
		opts := Options{MaxSegmentBytes: 128 + int64(in[0])%129, CompactInterval: -1}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()

		keys := make([]string, fzKeys)
		index := make(map[string]int, fzKeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", i)
			index[keys[i]] = i
		}
		model := map[string][]byte{}
		for i := 1; i+1 < len(in); i += 2 {
			code, ki, arg := in[i]&7, int(in[i]>>3)%fzKeys, in[i+1]
			key := keys[ki]
			var err error
			switch code {
			case fzPut, fzPut2, fzPut3:
				val := []byte(fmt.Sprintf("%d:%s", i, strings.Repeat("v", int(arg))))
				err = s.Put(key, val)
				model[key] = val
			case fzDelete:
				err = s.Delete(key)
				delete(model, key)
			case fzGC:
				live := func(k string) bool { return arg>>index[k]&1 == 1 }
				want := 0
				for k := range model {
					if !live(k) {
						delete(model, k)
						want++
					}
				}
				var removed int
				if removed, err = s.GC(live); err == nil && removed != want {
					t.Fatalf("op %d: GC removed %d keys, want %d", i, removed, want)
				}
			case fzSync:
				err = s.Sync()
			case fzCompact:
				_, err = s.Compact(arg&1 == 1)
			case fzReopen:
				if err = s.Close(); err == nil {
					s, err = Open(dir, opts)
				}
			}
			if err != nil {
				t.Fatalf("op %d (code %d, %s): %v", i, code, key, err)
			}
			checkModel(t, s, keys, model, i)
		}
	})
}

// checkModel compares the store's Get, Len and Keys with the model.
func checkModel(t *testing.T, s *Store, keys []string, model map[string][]byte, op int) {
	t.Helper()
	for _, k := range keys {
		got, ok, err := s.Get(k)
		want, wantOK := model[k]
		if err != nil || ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("after op %d: Get(%s) = (%q, %v, %v), want (%q, %v)", op, k, got, ok, err, want, wantOK)
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("after op %d: Len = %d, want %d", op, s.Len(), len(model))
	}
	got := s.Keys()
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("after op %d: Keys = %v, want %v", op, got, want)
	}
}
