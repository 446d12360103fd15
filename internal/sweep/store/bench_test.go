package store

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkStorePutSync stores one 24-point shard's completion, as the
// coordinator's cache does: 24 puts of 724 B (the size of one encoded
// pipeline.Result) under 64-character content keys, then one Sync.
// The store is warm: it is open and already holds one shard's results.
func BenchmarkStorePutSync(b *testing.B) {
	const points = 24
	s, err := Open(b.TempDir(), Options{CompactInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte{'r'}, 724)
	n := 0
	shard := func() {
		for j := 0; j < points; j++ {
			if err := s.Put(fmt.Sprintf("%064x", n), val); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if err := s.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	shard()
	b.SetBytes(points * int64(len(val)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shard()
	}
}
