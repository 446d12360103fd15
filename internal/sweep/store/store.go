// Package store is the sharded segment-log result store behind the
// sweep cache's directory mode (DESIGN.md §4.7). The monolithic JSON
// cache re-encodes the whole corpus on every save — fine at the
// acceptance grid's 192 points, hopeless at the explorer's ~10M
// candidate space. This store keeps the same key/value contract
// (content key → result bytes) but persists it the way kubo's
// blockstore/datastore split does: a stable key interface on top,
// append-only segments underneath, with compaction and GC as
// background concerns.
//
// Layout: keys hash into a fixed number of shards (Options.Shards,
// default 16). Each shard is a sequence of append-only segment files
// named "<shard>-<seq>.seg"; the highest sequence is the shard's
// active segment, which rolls to a fresh file once it exceeds
// Options.MaxSegmentBytes. Records use the exact framing discipline of
// the coordinator WAL (internal/sweep/durable):
//
//	uvarint  length of (type byte + payload)
//	byte     record type: 'P' (put) or 'D' (delete tombstone)
//	[]byte   payload
//	uint32   little-endian CRC-32 (IEEE) of type byte + payload
//
// A put payload is uvarint(len(key)) ∘ key ∘ value; a delete payload
// is uvarint(bound) ∘ key, where bound is one past the segment the
// tombstone was first written in — on replay it only kills records
// from segments older than that, so a tombstone moved forward by
// compaction can never shadow a newer put of the same key.
//
// Open scans every segment in (shard, sequence, offset) order and
// rebuilds the in-memory key → (segment, offset, length) index; a torn
// or corrupt tail is truncated back to the last intact record exactly
// like the WAL. Writes append to the active segment and never rewrite
// existing data; Sync fsyncs the dirty shards (the cache calls it once
// per Save). Compaction rewrites segments whose live-byte ratio has
// dropped below Options.CompactRatio by copying their still-live
// records to the active segment and deleting the file; GC appends
// tombstones for keys the caller no longer wants and then compacts.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"earlyrelease/internal/sweep/durable"
)

// Record types inside segment files.
const (
	recPut = 'P'
	recDel = 'D'
)

// Options tunes a store. The zero value takes every default.
type Options struct {
	// Shards is the key-hash shard count, fixed when the store is
	// created (the manifest pins it; later opens ignore this field).
	// Default 16.
	Shards int
	// MaxSegmentBytes rolls a shard's active segment to a fresh file
	// once it exceeds this size. Default 8 MiB.
	MaxSegmentBytes int64
	// CompactRatio is the live-byte fraction below which a sealed
	// segment is rewritten by Compact. Default 0.5.
	CompactRatio float64
	// CompactInterval is the background compaction cadence (a goroutine
	// started by Open, stopped by Close). 0 takes the default of one
	// minute; negative disables background compaction — short-lived
	// CLI processes compact explicitly instead.
	CompactInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	if o.CompactRatio <= 0 {
		o.CompactRatio = 0.5
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = time.Minute
	}
	return o
}

// manifest pins the store's creation-time geometry. Shard count cannot
// change after creation (keys would hash to the wrong segment files).
type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// ref locates one live key's put record.
type ref struct {
	seq  int   // segment sequence number
	off  int64 // frame start offset within the segment
	flen int64 // full frame length
}

// segMeta is the accounting for one segment file.
type segMeta struct {
	seq   int
	size  int64 // believed bytes (post tear-truncation)
	live  int64 // bytes of index-referenced put frames
	liveN int   // count of index-referenced put records
}

// shard is one key-hash partition: its own index, segments and lock.
type shard struct {
	mu        sync.RWMutex
	st        *Store
	id        int
	index     map[string]ref
	segs      map[int]*segMeta
	active    *os.File // nil until the first append
	activeSeq int
	dirty     bool // appended since the last Sync
}

// Store is a sharded segment-log key/value store.
type Store struct {
	dir    string
	opts   Options
	shards []*shard

	stopBg chan struct{}
	bgDone chan struct{}

	statMu      sync.Mutex
	compactions int64 // segments rewritten or dropped
}

// Open opens (creating if absent) the store rooted at dir and rebuilds
// the key index by scanning every segment. Torn tails are truncated
// back to the last intact record, so a store that was killed mid-append
// reopens clean.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	mpath := filepath.Join(dir, "MANIFEST.json")
	var m manifest
	ok, err := durable.ReadSnapshot(mpath, &m)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if ok {
		if m.Version != 1 || m.Shards <= 0 {
			return nil, fmt.Errorf("store: manifest %s: unsupported version %d / shards %d",
				mpath, m.Version, m.Shards)
		}
		opts.Shards = m.Shards
	} else {
		if err := durable.WriteSnapshot(mpath, manifest{Version: 1, Shards: opts.Shards}); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}

	s := &Store{dir: dir, opts: opts}
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{st: s, id: i, index: map[string]ref{}, segs: map[int]*segMeta{}}
	}

	// Group the segment files by shard, then scan each shard's segments
	// in sequence order so later records supersede earlier ones.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	seqs := make(map[int][]int, opts.Shards)
	for _, e := range entries {
		var id, seq int
		if n, _ := fmt.Sscanf(e.Name(), "%02x-%06d.seg", &id, &seq); n != 2 {
			continue
		}
		if id < 0 || id >= opts.Shards || seq <= 0 {
			return nil, fmt.Errorf("store: segment %s does not fit the manifest (%d shards)",
				e.Name(), opts.Shards)
		}
		seqs[id] = append(seqs[id], seq)
	}
	for id, list := range seqs {
		sort.Ints(list)
		sh := s.shards[id]
		for i, seq := range list {
			if err := sh.load(seq, i == len(list)-1); err != nil {
				s.closeFiles()
				return nil, err
			}
		}
	}

	if opts.CompactInterval > 0 {
		s.stopBg = make(chan struct{})
		s.bgDone = make(chan struct{})
		go s.background()
	}
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) segPath(id, seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%02x-%06d.seg", id, seq))
}

func (s *Store) shard(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// load scans one segment into the shard's index. isLast marks the
// shard's highest sequence, which becomes the active segment.
func (sh *shard) load(seq int, isLast bool) error {
	path := sh.st.segPath(sh.id, seq)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: read segment: %w", err)
	}
	meta := &segMeta{seq: seq}
	sh.segs[seq] = meta
	off := int64(0)
	for off < int64(len(data)) {
		rec, flen, ok := durable.DecodeFrame(data[off:])
		if !ok {
			break // torn or corrupt tail: stop believing the file here
		}
		sh.apply(rec, seq, off, flen, meta)
		off += flen
	}
	meta.size = off
	if off < int64(len(data)) {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate torn segment tail: %w", err)
		}
	}
	if isLast {
		if _, err := f.Seek(off, 0); err != nil {
			f.Close()
			return fmt.Errorf("store: seek segment: %w", err)
		}
		sh.active = f
		sh.activeSeq = seq
		return nil
	}
	return f.Close()
}

// apply replays one scanned record against the index.
func (sh *shard) apply(rec durable.Record, seq int, off, flen int64, meta *segMeta) {
	switch rec.Type {
	case recPut:
		key, _, ok := splitPut(rec.Payload)
		if !ok {
			return
		}
		if old, exists := sh.index[key]; exists {
			sh.deadRef(old)
		}
		sh.index[key] = ref{seq: seq, off: off, flen: flen}
		meta.live += flen
		meta.liveN++
	case recDel:
		bound, key, ok := splitDel(rec.Payload)
		if !ok {
			return
		}
		// The bound confines the tombstone to records older than its
		// original position, however far forward compaction has since
		// carried it.
		if r, exists := sh.index[key]; exists && r.seq < bound {
			sh.deadRef(r)
			delete(sh.index, key)
		}
	}
}

// deadRef retires one put record's accounting.
func (sh *shard) deadRef(r ref) {
	if m, ok := sh.segs[r.seq]; ok {
		m.live -= r.flen
		m.liveN--
	}
}

// splitPut parses a put payload into key and value.
func splitPut(p []byte) (key string, val []byte, ok bool) {
	klen, used := binary.Uvarint(p)
	if used <= 0 || klen == 0 || int64(used)+int64(klen) > int64(len(p)) {
		return "", nil, false
	}
	return string(p[used : used+int(klen)]), p[used+int(klen):], true
}

func putPayload(key string, val []byte) []byte {
	p := make([]byte, 0, binary.MaxVarintLen64+len(key)+len(val))
	p = binary.AppendUvarint(p, uint64(len(key)))
	p = append(p, key...)
	return append(p, val...)
}

// splitDel parses a delete payload into its bound and key.
func splitDel(p []byte) (bound int, key string, ok bool) {
	b, used := binary.Uvarint(p)
	if used <= 0 || used >= len(p) {
		return 0, "", false
	}
	return int(b), string(p[used:]), true
}

func delPayload(bound int, key string) []byte {
	p := make([]byte, 0, binary.MaxVarintLen64+len(key))
	p = binary.AppendUvarint(p, uint64(bound))
	return append(p, key...)
}

// roll seals the active segment (fsync + close) and opens the next
// sequence. Sealed segments are immutable from here on.
func (sh *shard) roll() error {
	if sh.active != nil {
		if err := sh.active.Sync(); err != nil {
			return fmt.Errorf("store: seal segment: %w", err)
		}
		if err := sh.active.Close(); err != nil {
			return fmt.Errorf("store: seal segment: %w", err)
		}
		sh.active = nil
	}
	seq := sh.activeSeq + 1
	f, err := os.OpenFile(sh.st.segPath(sh.id, seq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: new segment: %w", err)
	}
	sh.active = f
	sh.activeSeq = seq
	sh.segs[seq] = &segMeta{seq: seq}
	return nil
}

// append writes one pre-framed record to the active segment, rolling
// first if it is full, and returns the record's offset. Callers hold
// the shard lock.
func (sh *shard) append(frame []byte) (seq int, off int64, err error) {
	if sh.active == nil {
		if err := sh.roll(); err != nil {
			return 0, 0, err
		}
	}
	meta := sh.segs[sh.activeSeq]
	if meta.size > 0 && meta.size+int64(len(frame)) > sh.st.opts.MaxSegmentBytes {
		if err := sh.roll(); err != nil {
			return 0, 0, err
		}
		meta = sh.segs[sh.activeSeq]
	}
	off = meta.size
	if _, err := sh.active.Write(frame); err != nil {
		// A torn write leaves a tear at the tail; the next Open's scan
		// truncates it. Stop believing the bytes now.
		return 0, 0, fmt.Errorf("store: append: %w", err)
	}
	meta.size += int64(len(frame))
	sh.dirty = true
	return sh.activeSeq, off, nil
}

// Put stores val under key, appending a new record; an existing record
// for the key becomes dead weight for compaction to reclaim. The write
// reaches the OS immediately (a process kill cannot lose it) and is
// made durable by the next Sync.
func (s *Store) Put(key string, val []byte) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	frame := durable.AppendFrame(nil, recPut, putPayload(key, val))
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	seq, off, err := sh.append(frame)
	if err != nil {
		return err
	}
	if old, exists := sh.index[key]; exists {
		sh.deadRef(old)
	}
	sh.index[key] = ref{seq: seq, off: off, flen: int64(len(frame))}
	m := sh.segs[seq]
	m.live += int64(len(frame))
	m.liveN++
	return nil
}

// Get returns the value stored under key. ok is false for an absent
// key; an error means the record could not be read back intact (I/O
// failure or detected corruption — every read re-verifies the CRC).
func (s *Store) Get(key string) ([]byte, bool, error) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, exists := sh.index[key]
	if !exists {
		return nil, false, nil
	}
	buf := make([]byte, r.flen)
	if r.seq == sh.activeSeq && sh.active != nil {
		if _, err := sh.active.ReadAt(buf, r.off); err != nil {
			return nil, false, fmt.Errorf("store: read %s: %w", key, err)
		}
	} else {
		f, err := os.Open(s.segPath(sh.id, r.seq))
		if err != nil {
			return nil, false, fmt.Errorf("store: read %s: %w", key, err)
		}
		_, err = f.ReadAt(buf, r.off)
		f.Close()
		if err != nil {
			return nil, false, fmt.Errorf("store: read %s: %w", key, err)
		}
	}
	rec, _, ok := durable.DecodeFrame(buf)
	if !ok || rec.Type != recPut {
		return nil, false, fmt.Errorf("store: record for %s is corrupt", key)
	}
	k, val, ok := splitPut(rec.Payload)
	if !ok || k != key {
		return nil, false, fmt.Errorf("store: record for %s is corrupt", key)
	}
	return val, true, nil
}

// Has reports whether key is present without reading its value.
func (s *Store) Has(key string) bool {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.index[key]
	return ok
}

// Delete removes key by appending a tombstone. Deleting an absent key
// is a no-op.
func (s *Store) Delete(key string) error {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.delete(key)
}

func (sh *shard) delete(key string) error {
	r, exists := sh.index[key]
	if !exists {
		return nil
	}
	// One past the current active sequence: on replay the tombstone
	// kills this put wherever it sits, and nothing written after it.
	bound := sh.activeSeq + 1
	frame := durable.AppendFrame(nil, recDel, delPayload(bound, key))
	if _, _, err := sh.append(frame); err != nil {
		return err
	}
	sh.deadRef(r)
	delete(sh.index, key)
	return nil
}

// Len reports the number of live keys.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.index)
		sh.mu.RUnlock()
	}
	return n
}

// Keys returns every live key, in no particular order.
func (s *Store) Keys() []string {
	var keys []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range sh.index {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
	}
	return keys
}

// Sync fsyncs every shard with unsynced appends — the per-Save
// durability point. Between Syncs, appended records live in the OS
// page cache: safe across a process kill, lost only to a machine
// crash (and recovered as a clean truncation either way).
func (s *Store) Sync() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.dirty && sh.active != nil {
			if err := sh.active.Sync(); err != nil && first == nil {
				first = fmt.Errorf("store: sync: %w", err)
			} else {
				sh.dirty = false
			}
		}
		sh.mu.Unlock()
	}
	return first
}

// CompactStats summarizes one compaction pass.
type CompactStats struct {
	Segments  int   `json:"segments"`  // segments rewritten or dropped
	CopiedKey int   `json:"copied"`    // live records carried forward
	Reclaimed int64 `json:"reclaimed"` // bytes of dead weight released
}

// Compact rewrites sealed segments whose live-byte ratio has dropped
// below Options.CompactRatio (every sealed segment when force is set):
// still-live records are appended to the active segment, needed
// tombstones are carried forward, and the old file is removed. Values
// are moved verbatim — a compacted store serves byte-identical data.
func (s *Store) Compact(force bool) (CompactStats, error) {
	var total CompactStats
	for _, sh := range s.shards {
		st, err := sh.compact(force)
		total.Segments += st.Segments
		total.CopiedKey += st.CopiedKey
		total.Reclaimed += st.Reclaimed
		if err != nil {
			return total, err
		}
	}
	s.statMu.Lock()
	s.compactions += int64(total.Segments)
	s.statMu.Unlock()
	return total, nil
}

func (sh *shard) compact(force bool) (CompactStats, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var st CompactStats

	var seqs []int
	for seq := range sh.segs {
		if seq != sh.activeSeq {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)

	for _, seq := range seqs {
		m := sh.segs[seq]
		if !force && m.size > 0 && float64(m.live)/float64(m.size) >= sh.st.opts.CompactRatio {
			continue
		}
		if err := sh.rewrite(seq, m, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// rewrite carries one sealed segment's live records (and still-needed
// tombstones) into the active segment and deletes the file. The active
// segment is synced before the source file is removed, so even a
// machine crash mid-compaction cannot lose a moved record.
func (sh *shard) rewrite(seq int, m *segMeta, st *CompactStats) error {
	path := sh.st.segPath(sh.id, seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if int64(len(data)) > m.size {
		data = data[:m.size]
	}
	moved := false
	off := int64(0)
	for off < int64(len(data)) {
		rec, flen, ok := durable.DecodeFrame(data[off:])
		if !ok {
			break // believed size should preclude this; stop cleanly
		}
		frame := data[off : off+flen]
		switch rec.Type {
		case recPut:
			key, _, pok := splitPut(rec.Payload)
			if pok {
				if r, live := sh.index[key]; live && r.seq == seq && r.off == off {
					nseq, noff, err := sh.append(frame)
					if err != nil {
						return err
					}
					sh.index[key] = ref{seq: nseq, off: noff, flen: flen}
					nm := sh.segs[nseq]
					nm.live += flen
					nm.liveN++
					st.CopiedKey++
					moved = true
				}
			}
		case recDel:
			bound, _, dok := splitDel(rec.Payload)
			if dok && sh.needsTombstone(bound, seq) {
				if _, _, err := sh.append(frame); err != nil {
					return err
				}
				moved = true
			}
		}
		off += flen
	}
	if moved {
		if err := sh.active.Sync(); err != nil {
			return fmt.Errorf("store: compact sync: %w", err)
		}
		sh.dirty = false
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	st.Segments++
	st.Reclaimed += m.size - m.live
	delete(sh.segs, seq)
	return nil
}

// needsTombstone reports whether a tombstone from segment seq with the
// given bound must be carried forward: only while some other sealed
// segment older than the bound still exists could a stale put record
// resurface on replay.
func (sh *shard) needsTombstone(bound, seq int) bool {
	for other := range sh.segs {
		if other != seq && other != sh.activeSeq && other < bound {
			return true
		}
	}
	return false
}

// GC deletes every key the live predicate rejects, then compacts. It
// returns the number of keys removed.
func (s *Store) GC(live func(key string) bool) (int, error) {
	removed := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		var dead []string
		for k := range sh.index {
			if !live(k) {
				dead = append(dead, k)
			}
		}
		sort.Strings(dead) // deterministic tombstone order
		var err error
		for _, k := range dead {
			if err = sh.delete(k); err != nil {
				break
			}
			removed++
		}
		sh.mu.Unlock()
		if err != nil {
			return removed, err
		}
	}
	_, err := s.Compact(false)
	return removed, err
}

// Stats is a point-in-time view of the store's shape on disk.
type Stats struct {
	Keys        int   `json:"keys"`
	Shards      int   `json:"shards"`
	Segments    int   `json:"segments"`
	Bytes       int64 `json:"bytes"`
	LiveBytes   int64 `json:"live_bytes"`
	Compactions int64 `json:"compactions"` // segments reclaimed so far
}

// Stats reports the store's current shape.
func (s *Store) Stats() Stats {
	st := Stats{Shards: len(s.shards)}
	for _, sh := range s.shards {
		sh.mu.RLock()
		st.Keys += len(sh.index)
		st.Segments += len(sh.segs)
		for _, m := range sh.segs {
			st.Bytes += m.size
			st.LiveBytes += m.live
		}
		sh.mu.RUnlock()
	}
	s.statMu.Lock()
	st.Compactions = s.compactions
	s.statMu.Unlock()
	return st
}

// background runs the periodic compaction loop until Close.
func (s *Store) background() {
	defer close(s.bgDone)
	tick := time.NewTicker(s.opts.CompactInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopBg:
			return
		case <-tick.C:
			s.Compact(false) // best-effort; Sync/Close surface real errors
		}
	}
}

func (s *Store) closeFiles() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.active != nil {
			if err := sh.active.Sync(); err != nil && first == nil {
				first = err
			}
			if err := sh.active.Close(); err != nil && first == nil {
				first = err
			}
			sh.active = nil
		}
		sh.mu.Unlock()
	}
	return first
}

// Close stops background compaction, fsyncs and closes every shard.
// Further writes fail; the store can be re-Opened.
func (s *Store) Close() error {
	if s.stopBg != nil {
		close(s.stopBg)
		<-s.bgDone
		s.stopBg = nil
	}
	return s.closeFiles()
}
