// Package store is the segment-log result store behind the sweep
// cache's directory mode (DESIGN.md §4.7). The monolithic JSON
// cache re-encodes the whole corpus on every save — fine at the
// acceptance grid's 192 points, hopeless at the explorer's ~10M
// candidate space. This store keeps the same key/value contract
// (content key → result bytes) but persists it the way kubo's
// blockstore/datastore split does: a stable key interface on top,
// append-only segments underneath, with compaction and GC as
// background concerns.
//
// Layout: one sequence of append-only segment files named "<seq>.seg"
// under one key index, as in Bitcask; the highest sequence is the
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
// Open scans every segment in (sequence, offset) order and rebuilds the
// in-memory key → (segment, offset, length) index; a torn or corrupt
// tail is truncated back to the last intact record exactly like the
// WAL. Writes append to the active segment and never rewrite existing
// data; Sync fsyncs the active segment (the cache calls it once per
// Save). Compaction rewrites sealed segments whose live-byte ratio has
// dropped below one half by copying their still-live records to the
// active segment and deleting the file; GC appends tombstones for keys
// the caller no longer wants and then compacts.
//
// A directory holding MANIFEST.json is a store sharded by key hash,
// written by an older version; Open refuses it and leaves it untouched.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// compactRatio is the live-byte fraction below which Compact rewrites
// a sealed segment.
const compactRatio = 0.5

// Options tunes a store. The zero value takes every default.
type Options struct {
	// MaxSegmentBytes rolls the active segment to a fresh file once it
	// exceeds this size. Default 8 MiB.
	MaxSegmentBytes int64
	// CompactInterval is the background compaction cadence (a goroutine
	// started by Open, stopped by Close). 0 takes the default of one
	// minute; negative disables background compaction — short-lived
	// CLI processes compact explicitly instead.
	CompactInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = time.Minute
	}
	return o
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

// Store is a segment-log key/value store. One lock guards the index
// and the segments: writes already arrive one at a time through the
// sweep cache's lock, and compaction holds it while it rewrites a
// sealed segment.
type Store struct {
	dir  string
	opts Options

	mu          sync.RWMutex
	index       map[string]ref
	segs        map[int]*segMeta
	active      *os.File // nil until the first append
	activeSeq   int
	dirty       bool  // appended since the last Sync
	compactions int64 // segments rewritten or dropped

	stopBg chan struct{}
	bgDone chan struct{}
}

// Open opens (creating if absent) the store rooted at dir and rebuilds
// the key index by scanning every segment. Torn tails are truncated
// back to the last intact record, so a store that was killed mid-append
// reopens clean. Opening an empty store writes and syncs nothing.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	mpath := filepath.Join(dir, "MANIFEST.json")
	if _, err := os.Lstat(mpath); err == nil {
		return nil, fmt.Errorf("store: %s marks a store sharded by an older version, which this one cannot read; "+
			"results are content-addressed, so open a new directory", mpath)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		if n, _ := fmt.Sscanf(e.Name(), "%06d.seg", &seq); n != 1 {
			continue
		}
		if seq <= 0 {
			return nil, fmt.Errorf("store: segment %s has no valid sequence number", e.Name())
		}
		seqs = append(seqs, seq)
	}
	// Scan in sequence order so later records supersede earlier ones.
	sort.Ints(seqs)
	s := &Store{dir: dir, opts: opts, index: map[string]ref{}, segs: map[int]*segMeta{}}
	for i, seq := range seqs {
		if err := s.load(seq, i == len(seqs)-1); err != nil {
			return nil, err
		}
	}

	if opts.CompactInterval > 0 {
		s.stopBg = make(chan struct{})
		s.bgDone = make(chan struct{})
		go s.background()
	}
	return s, nil
}

func (s *Store) segPath(seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%06d.seg", seq))
}

// load scans one segment into the index. isLast marks the highest
// sequence, which becomes the active segment; only it stays open, so a
// failed load leaves no file open.
func (s *Store) load(seq int, isLast bool) error {
	path := s.segPath(seq)
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
	s.segs[seq] = meta
	off := int64(0)
	for off < int64(len(data)) {
		rec, flen, ok := durable.DecodeFrame(data[off:])
		if !ok {
			break // torn or corrupt tail: stop believing the file here
		}
		s.apply(rec, seq, off, flen, meta)
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
		s.active = f
		s.activeSeq = seq
		return nil
	}
	return f.Close()
}

// apply replays one scanned record against the index.
func (s *Store) apply(rec durable.Record, seq int, off, flen int64, meta *segMeta) {
	switch rec.Type {
	case recPut:
		key, _, ok := splitPut(rec.Payload)
		if !ok {
			return
		}
		if old, exists := s.index[key]; exists {
			s.deadRef(old)
		}
		s.index[key] = ref{seq: seq, off: off, flen: flen}
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
		if r, exists := s.index[key]; exists && r.seq < bound {
			s.deadRef(r)
			delete(s.index, key)
		}
	}
}

// deadRef retires one put record's accounting.
func (s *Store) deadRef(r ref) {
	if m, ok := s.segs[r.seq]; ok {
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
func (s *Store) roll() error {
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("store: seal segment: %w", err)
		}
		if err := s.active.Close(); err != nil {
			return fmt.Errorf("store: seal segment: %w", err)
		}
		s.active = nil
	}
	seq := s.activeSeq + 1
	f, err := os.OpenFile(s.segPath(seq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: new segment: %w", err)
	}
	s.active = f
	s.activeSeq = seq
	s.segs[seq] = &segMeta{seq: seq}
	return nil
}

// append writes one pre-framed record to the active segment, rolling
// first if it is full, and returns the record's offset. Callers hold
// s.mu.
func (s *Store) append(frame []byte) (seq int, off int64, err error) {
	if s.active == nil {
		if err := s.roll(); err != nil {
			return 0, 0, err
		}
	}
	meta := s.segs[s.activeSeq]
	if meta.size > 0 && meta.size+int64(len(frame)) > s.opts.MaxSegmentBytes {
		if err := s.roll(); err != nil {
			return 0, 0, err
		}
		meta = s.segs[s.activeSeq]
	}
	off = meta.size
	if _, err := s.active.Write(frame); err != nil {
		// A torn write leaves a tear at the tail; the next Open's scan
		// truncates it. Stop believing the bytes now.
		return 0, 0, fmt.Errorf("store: append: %w", err)
	}
	meta.size += int64(len(frame))
	s.dirty = true
	return s.activeSeq, off, nil
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
	s.mu.Lock()
	defer s.mu.Unlock()
	seq, off, err := s.append(frame)
	if err != nil {
		return err
	}
	if old, exists := s.index[key]; exists {
		s.deadRef(old)
	}
	s.index[key] = ref{seq: seq, off: off, flen: int64(len(frame))}
	m := s.segs[seq]
	m.live += int64(len(frame))
	m.liveN++
	return nil
}

// Get returns the value stored under key. ok is false for an absent
// key; an error means the record could not be read back intact (I/O
// failure or detected corruption — every read re-verifies the CRC).
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, exists := s.index[key]
	if !exists {
		return nil, false, nil
	}
	buf := make([]byte, r.flen)
	if r.seq == s.activeSeq && s.active != nil {
		if _, err := s.active.ReadAt(buf, r.off); err != nil {
			return nil, false, fmt.Errorf("store: read %s: %w", key, err)
		}
	} else {
		f, err := os.Open(s.segPath(r.seq))
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Delete removes key by appending a tombstone. Deleting an absent key
// is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delete(key)
}

func (s *Store) delete(key string) error {
	r, exists := s.index[key]
	if !exists {
		return nil
	}
	// One past the current active sequence: on replay the tombstone
	// kills this put wherever it sits, and nothing written after it.
	bound := s.activeSeq + 1
	frame := durable.AppendFrame(nil, recDel, delPayload(bound, key))
	if _, _, err := s.append(frame); err != nil {
		return err
	}
	s.deadRef(r)
	delete(s.index, key)
	return nil
}

// Len reports the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Keys returns every live key, in no particular order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	return keys
}

// Sync fsyncs the active segment if it holds unsynced appends — the
// per-Save durability point. Between Syncs, appended records live in
// the OS page cache: safe across a process kill, lost only to a machine
// crash (and recovered as a clean truncation either way). A failed
// Sync leaves the store dirty, so the next one tries again.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty || s.active == nil {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.dirty = false
	return nil
}

// CompactStats summarizes one compaction pass.
type CompactStats struct {
	Segments  int   `json:"segments"`  // segments rewritten or dropped
	CopiedKey int   `json:"copied"`    // live records carried forward
	Reclaimed int64 `json:"reclaimed"` // bytes of dead weight released
}

// Compact rewrites sealed segments whose live-byte ratio has dropped
// below one half (every sealed segment when force is set): still-live
// records are appended to the active segment, needed tombstones are
// carried forward, and the old file is removed. Values are moved
// verbatim — a compacted store serves byte-identical data. The pass
// holds the store's lock throughout.
func (s *Store) Compact(force bool) (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st CompactStats
	defer func() { s.compactions += int64(st.Segments) }()

	var seqs []int
	for seq := range s.segs {
		if seq != s.activeSeq {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)

	for _, seq := range seqs {
		m := s.segs[seq]
		if !force && m.size > 0 && float64(m.live)/float64(m.size) >= compactRatio {
			continue
		}
		if err := s.rewrite(seq, m, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// rewrite carries one sealed segment's live records (and still-needed
// tombstones) into the active segment and deletes the file. The active
// segment is synced before the source file is removed, so even a
// machine crash mid-compaction cannot lose a moved record.
func (s *Store) rewrite(seq int, m *segMeta, st *CompactStats) error {
	path := s.segPath(seq)
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
				if r, live := s.index[key]; live && r.seq == seq && r.off == off {
					nseq, noff, err := s.append(frame)
					if err != nil {
						return err
					}
					s.index[key] = ref{seq: nseq, off: noff, flen: flen}
					nm := s.segs[nseq]
					nm.live += flen
					nm.liveN++
					st.CopiedKey++
					moved = true
				}
			}
		case recDel:
			bound, _, dok := splitDel(rec.Payload)
			if dok && s.needsTombstone(bound, seq) {
				if _, _, err := s.append(frame); err != nil {
					return err
				}
				moved = true
			}
		}
		off += flen
	}
	if moved {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("store: compact sync: %w", err)
		}
		s.dirty = false
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	st.Segments++
	st.Reclaimed += m.size - m.live
	delete(s.segs, seq)
	return nil
}

// needsTombstone reports whether a tombstone from segment seq with the
// given bound must be carried forward: only while some other sealed
// segment older than the bound still exists could a stale put record
// resurface on replay.
func (s *Store) needsTombstone(bound, seq int) bool {
	for other := range s.segs {
		if other != seq && other != s.activeSeq && other < bound {
			return true
		}
	}
	return false
}

// GC deletes every key the live predicate rejects, then compacts. It
// returns the number of keys removed.
func (s *Store) GC(live func(key string) bool) (int, error) {
	s.mu.Lock()
	var dead []string
	for k := range s.index {
		if !live(k) {
			dead = append(dead, k)
		}
	}
	sort.Strings(dead) // deterministic tombstone order
	removed := 0
	var err error
	for _, k := range dead {
		if err = s.delete(k); err != nil {
			break
		}
		removed++
	}
	s.mu.Unlock()
	if err != nil {
		return removed, err
	}
	_, err = s.Compact(false)
	return removed, err
}

// Stats is a point-in-time view of the store's shape on disk.
type Stats struct {
	Keys        int   `json:"keys"`
	Segments    int   `json:"segments"`
	Bytes       int64 `json:"bytes"`
	LiveBytes   int64 `json:"live_bytes"`
	Compactions int64 `json:"compactions"` // segments reclaimed so far
}

// Stats reports the store's current shape.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Keys: len(s.index), Segments: len(s.segs), Compactions: s.compactions}
	for _, m := range s.segs {
		st.Bytes += m.size
		st.LiveBytes += m.live
	}
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

// Close stops background compaction, then fsyncs and closes the active
// segment. Further writes fail; the store can be re-Opened.
func (s *Store) Close() error {
	if s.stopBg != nil {
		close(s.stopBg)
		<-s.bgDone
		s.stopBg = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.active = nil
	return err
}
