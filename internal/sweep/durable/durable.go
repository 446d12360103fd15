// Package durable provides the storage primitives behind the sweep
// coordinator's crash-resume (DESIGN.md §4.3 "Durability"): an
// append-only write-ahead log of checksummed records, which compacts
// by an atomic rewrite of itself, and atomic point-in-time JSON
// snapshots for small state files (sweepd's exploration records).
// The result store (internal/sweep/store) frames its segment
// records with the same AppendFrame and DecodeFrame. The package knows
// nothing about the coordinator — records are (type, payload) pairs
// and snapshots are opaque JSON values.
//
// The layering follows kubo's repo/datastore split: this package is
// the datastore (bytes on disk, integrity, fsck on open), and
// internal/sweep's journal is the repo (schema and replay semantics).
//
// WAL record framing, in file order:
//
//	uvarint  length of (type byte + payload)
//	byte     record type (schema-defined, opaque here)
//	[]byte   payload
//	uint32   little-endian CRC-32 (IEEE) of the type byte + payload
//
// A record is only believed if its full frame is present and its
// checksum matches. A crash mid-Append leaves a torn tail — a partial
// frame, or a frame whose checksum was never completed — and OpenWAL
// handles it the only safe way: every record up to the tear is
// returned, the tear and everything after it is dropped, and the file
// is truncated back to the last good record so subsequent appends
// extend a clean log. Corruption is tolerated only at the tail;
// a checksum failure is indistinguishable from a torn write, so the
// scan stops there either way.
package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Record is one WAL entry: an opaque payload under a schema-defined
// type byte.
type Record struct {
	Type    byte
	Payload []byte
}

// maxRecordBytes bounds a single decoded record (a planned shard or a
// completed shard of results is well under 1 MiB; 64 MiB leaves room
// without letting a corrupt length prefix allocate the address space).
const maxRecordBytes = 64 << 20

// AppendFrame appends the on-disk frame for one record to dst and
// returns the extended slice — the framing every durable file in the
// system shares (the coordinator WAL here, the result store's segment
// logs in internal/sweep/store): uvarint length, type byte + payload
// body, little-endian CRC-32. The body is copied once, straight into
// dst, and checksummed where it lands.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+1+len(payload)+4)
	dst = binary.AppendUvarint(dst, uint64(1+len(payload)))
	start := len(dst)
	dst = append(dst, typ)
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// DecodeFrame parses the frame at the start of data. ok is false when
// the frame is torn, its length prefix is garbage, or its checksum
// does not match — the scanner's cue to stop believing the file. Only
// in the last case is frameLen set: the frame is complete, so a
// scanner that knows the file was written whole (a sealed store
// segment) can skip it. The returned payload aliases data; callers
// that outlive data must copy.
func DecodeFrame(data []byte) (rec Record, frameLen int64, ok bool) {
	n, used := binary.Uvarint(data)
	if used <= 0 || n == 0 || n > maxRecordBytes {
		return Record{}, 0, false
	}
	frameLen = int64(used) + int64(n) + 4 // len + body + crc
	if int64(len(data)) < frameLen {
		return Record{}, 0, false
	}
	body := data[used : int64(used)+int64(n)]
	sum := binary.LittleEndian.Uint32(data[int64(used)+int64(n):])
	if crc32.ChecksumIEEE(body) != sum {
		return Record{}, frameLen, false
	}
	return Record{Type: body[0], Payload: body[1:]}, frameLen, true
}

// WAL is an append-only record log. One writer at a time; Append is
// not internally locked (the coordinator serializes under its own
// mutex).
type WAL struct {
	f      *os.File
	path   string
	size   int64 // bytes of valid, believed records
	closed bool

	// frame is the buffer every record is framed in, reused from one
	// append to the next while it stays under maxKeptFrame; enc is
	// AppendJSON's encoder, writing into it.
	frame frameBuf
	enc   *json.Encoder
}

// maxKeptFrame caps the frame buffer a WAL keeps between appends. A
// record that grows it past the cap still goes out in one write, but
// the buffer is dropped afterwards, so one huge grid's done record
// does not pin its size for the life of the log.
const maxKeptFrame = 1 << 20

// frameBuf is an io.Writer that appends to itself: the target of
// AppendJSON's encoder.
type frameBuf []byte

func (b *frameBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// OpenWAL opens (creating if absent) the log at path and scans it,
// returning every intact record in append order. A torn or corrupt
// tail is dropped and the file truncated back to the last good record;
// corruption that cannot be explained as a tail tear is still handled
// the same way — everything before it is preserved, nothing after it
// is believed.
func OpenWAL(path string) (*WAL, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open wal: %w", err)
	}
	// A crash mid-Rewrite can leave its temp file behind; the log
	// itself is intact either way.
	stale, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+"-*"))
	for _, p := range stale {
		os.Remove(p)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("durable: read wal: %w", err)
	}

	recs, good := scan(data)
	if good < int64(len(data)) {
		// Torn tail: truncate back to the last intact record so the
		// next Append extends a clean log.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("durable: truncate torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("durable: seek wal: %w", err)
	}
	return &WAL{f: f, path: path, size: good}, recs, nil
}

// scan walks the raw log and returns the intact records plus the byte
// offset of the first tear (== len(data) when the log is clean).
func scan(data []byte) ([]Record, int64) {
	var recs []Record
	off := int64(0)
	for int(off) < len(data) {
		rec, frame, ok := DecodeFrame(data[off:])
		if !ok {
			break // torn, garbage length, or checksum mismatch: drop from here
		}
		rec.Payload = append([]byte(nil), rec.Payload...)
		recs = append(recs, rec)
		off += frame
	}
	return recs, off
}

// Append writes one record. With sync set the frame is fsynced before
// returning — the record survives a machine crash, not just a process
// crash. Unsynced appends still reach the OS immediately (a process
// kill cannot lose them) and are made durable by the next synced
// append or Rewrite.
func (w *WAL) Append(typ byte, payload []byte, sync bool) error {
	if w.closed {
		return errors.New("durable: append to closed wal")
	}
	w.frame = AppendFrame(w.frame[:0], typ, payload)
	return w.write(w.frame, sync)
}

// AppendJSON appends the JSON encoding of v under typ. The frame is
// built in place in the WAL's reused buffer: room for the longest
// length prefix, the type byte, then the encoder writes the payload
// straight after it; the real prefix goes right-aligned in front of
// the body once its length is known, and the checksum after it. The
// bytes are exactly AppendFrame's over json.Marshal(v).
func (w *WAL) AppendJSON(typ byte, v any, sync bool) error {
	if w.closed {
		return errors.New("durable: append to closed wal")
	}
	if w.enc == nil {
		w.enc = json.NewEncoder(&w.frame)
	}
	const room = binary.MaxVarintLen64
	w.frame = append(w.frame[:0], make([]byte, room)...)
	w.frame = append(w.frame, typ)
	if err := w.enc.Encode(v); err != nil {
		return fmt.Errorf("durable: encode wal record: %w", err)
	}
	body := w.frame[room : len(w.frame)-1] // Encode ends the value with a newline
	var prefix [room]byte
	start := room - binary.PutUvarint(prefix[:], uint64(len(body)))
	copy(w.frame[start:], prefix[:room-start])
	w.frame = binary.LittleEndian.AppendUint32(w.frame[:len(w.frame)-1], crc32.ChecksumIEEE(body))
	return w.write(w.frame[start:], sync)
}

// write appends one framed record to the log file, then drops the
// frame buffer if it has grown past maxKeptFrame.
func (w *WAL) write(frame []byte, sync bool) error {
	_, err := w.f.Write(frame)
	if err == nil {
		w.size += int64(len(frame))
	}
	if cap(w.frame) > maxKeptFrame {
		w.frame = nil
	}
	if err != nil {
		return fmt.Errorf("durable: append wal: %w", err)
	}
	if sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("durable: sync wal: %w", err)
		}
	}
	return nil
}

// Rewrite atomically replaces the log with recs — the compaction
// primitive. The frames go to a temp file in the log's directory,
// which is fsynced and renamed over the log; the directory is then
// fsynced, or a power loss could undo the rename and take every
// synced append made after it along. The open handle switches to the
// new file, so later appends extend it. If anything fails before the
// rename, the old log is untouched and appends keep extending it.
func (w *WAL) Rewrite(recs []Record) error {
	if w.closed {
		return errors.New("durable: rewrite closed wal")
	}
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(w.path)+"-*")
	if err != nil {
		return fmt.Errorf("durable: rewrite wal: %w", err)
	}
	bw := bufio.NewWriter(tmp)
	size := int64(0)
	for _, r := range recs {
		w.frame = AppendFrame(w.frame[:0], r.Type, r.Payload)
		n, _ := bw.Write(w.frame) // a write error sticks until Flush
		size += int64(n)
	}
	if cap(w.frame) > maxKeptFrame {
		w.frame = nil
	}
	err = bw.Flush()
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), w.path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: rewrite wal: %w", err)
	}
	w.f.Close() // the replaced log: the rewrite supersedes it
	w.f, w.size = tmp, size
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("durable: rewrite wal: sync dir: %w", err)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Size reports the bytes of believed records currently in the log.
func (w *WAL) Size() int64 { return w.size }

// Close syncs and closes the log file. Further appends fail.
func (w *WAL) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	serr := w.f.Sync()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteSnapshot atomically replaces path with the JSON encoding of v:
// temp file in the same directory, fsync, rename. A crash at any point
// leaves either the old snapshot or the new one, never a torn mix.
func WriteSnapshot(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("durable: encode snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("durable: write snapshot: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: write snapshot: %w", werr)
	}
	return nil
}

// ReadSnapshot decodes the snapshot at path into v. ok is false when
// no snapshot exists (a fresh state dir); a corrupt snapshot is an
// error — unlike a WAL tail, a half-written snapshot cannot happen
// under WriteSnapshot's rename discipline, so corruption here means
// the operator should intervene rather than silently lose state.
func ReadSnapshot(path string, v any) (ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("durable: read snapshot: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("durable: snapshot %s is corrupt: %w", path, err)
	}
	return true, nil
}
