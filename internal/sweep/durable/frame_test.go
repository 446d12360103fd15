package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"earlyrelease/internal/pipeline"
)

// encodeFrameRef is the two-copy frame encoder the WAL and the result
// store used before AppendFrame, kept as the oracle of the on-disk
// bytes: every existing state dir was written by it.
func encodeFrameRef(typ byte, payload []byte) []byte {
	body := make([]byte, 0, 1+len(payload))
	body = append(body, typ)
	body = append(body, payload...)
	frame := make([]byte, 0, binary.MaxVarintLen64+len(body)+4)
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	frame = append(frame, body...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
}

// randomRecords returns n records whose payload sizes span one-, two-
// and three-byte length prefixes.
func randomRecords(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		payload := make([]byte, rng.Intn(1<<uint(rng.Intn(18))))
		rng.Read(payload)
		recs[i] = Record{Type: byte(rng.Intn(256)), Payload: payload}
	}
	return recs
}

// TestAppendFrameMatchesReference pins AppendFrame's bytes to the old
// encoder's on random records, appended after existing bytes.
func TestAppendFrameMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, r := range randomRecords(rng, 400) {
		dst := []byte("head")
		got := AppendFrame(dst, r.Type, r.Payload)
		if want := encodeFrameRef(r.Type, r.Payload); string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
			t.Fatalf("record %d (type %d, %d B): frame differs from the reference encoding", i, r.Type, len(r.Payload))
		}
		rec, n, ok := DecodeFrame(got[4:])
		if !ok || n != int64(len(got)-4) || rec.Type != r.Type || !bytes.Equal(rec.Payload, r.Payload) {
			t.Fatalf("record %d does not decode back", i)
		}
	}
}

// TestWALReplaysReferenceFrames: a log written by the old encoder
// replays in full, and records appended to it afterwards are the bytes
// the old encoder would have written.
func TestWALReplaysReferenceFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	rng := rand.New(rand.NewSource(2))
	old := randomRecords(rng, 50)
	var file []byte
	for _, r := range old {
		file = append(file, encodeFrameRef(r.Type, r.Payload)...)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs := openT(t, path)
	if len(recs) != len(old) || w.Size() != int64(len(file)) {
		t.Fatalf("replayed %d records of %d, size %d of %d", len(recs), len(old), w.Size(), len(file))
	}
	for i := range old {
		if recs[i].Type != old[i].Type || !bytes.Equal(recs[i].Payload, old[i].Payload) {
			t.Fatalf("record %d differs", i)
		}
	}
	if err := w.Append(5, []byte("raw"), false); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendJSON(3, map[string]int{"idx": 7}, true); err != nil {
		t.Fatal(err)
	}
	w.Close()
	file = append(file, encodeFrameRef(5, []byte("raw"))...)
	file = append(file, encodeFrameRef(3, []byte(`{"idx":7}`))...)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, file) {
		t.Fatalf("log after appends differs from the reference encoding (%v)", err)
	}
}

// doneRecord is the coordinator's done record as versions that
// journaled results wrote it: one entry per resolved point, each
// carrying its result. The journal no longer writes results; the shape
// stays as a large, result-heavy payload for the framing tests.
type doneRecord struct {
	Job     string      `json:"job,omitempty"`
	Entries []doneEntry `json:"entries,omitempty"`
}

type doneEntry struct {
	Idx    int              `json:"idx"`
	Cached bool             `json:"cached,omitempty"`
	Err    string           `json:"err,omitempty"`
	Result *pipeline.Result `json:"result,omitempty"`
}

// warmDoneRecord is the done record of a fully cached n-point job,
// its results cycled from the pipeline's golden fixtures.
func warmDoneRecord(tb testing.TB, n int) *doneRecord {
	tb.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", "pipeline", "testdata", "golden.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var golden map[string]*pipeline.Result
	if err := json.Unmarshal(blob, &golden); err != nil {
		tb.Fatal(err)
	}
	names := make([]string, 0, len(golden))
	for name := range golden {
		names = append(names, name)
	}
	sort.Strings(names)
	rec := &doneRecord{Job: "job-1", Entries: make([]doneEntry, n)}
	for i := range rec.Entries {
		rec.Entries[i] = doneEntry{Idx: i, Cached: true, Result: golden[names[i%len(names)]]}
	}
	return rec
}

// lastFrame returns the bytes w appended since size.
func lastFrame(t *testing.T, w *WAL, size int64) []byte {
	t.Helper()
	data, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	return data[size:]
}

// TestAppendJSONFrames: AppendJSON writes exactly the frame of
// json.Marshal(v) under the old encoder, HTML escaping and all;
// allocates nothing once its buffer has grown; and drops a buffer that
// one record grew past maxKeptFrame.
func TestAppendJSONFrames(t *testing.T) {
	w, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"))
	huge := strings.Repeat("x", maxKeptFrame+1)
	values := []any{
		warmDoneRecord(t, 192),
		&doneRecord{},
		map[string]any{"html": "<a href=\"x\">&</a>", "unicode": "é  ", "n": nil},
		[]float64{0, -1.5, 1e21, 1e-7, 3.141592653589793},
		json.RawMessage(`{"meta": [1, 2]}`),
		"",
		huge,
		&doneRecord{Job: "after-huge"},
	}
	for i, v := range values {
		size := w.Size()
		if err := w.AppendJSON(byte(i+1), v, false); err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := lastFrame(t, w, size), encodeFrameRef(byte(i+1), blob); !bytes.Equal(got, want) {
			t.Errorf("value %d: frame differs from the reference encoding of json.Marshal\ngot:  %.120q\nwant: %.120q", i, got, want)
		}
		if cap(w.frame) > maxKeptFrame {
			t.Errorf("value %d: WAL keeps a %d B frame buffer, cap %d", i, cap(w.frame), maxKeptFrame)
		}
		if v, ok := v.(string); ok && v == huge && w.frame != nil {
			t.Errorf("the buffer that framed a %d B record was kept", len(huge))
		}
	}

	size := w.Size()
	if err := w.AppendJSON(1, func() {}, true); err == nil {
		t.Error("AppendJSON of an unencodable value succeeded")
	}
	if w.Size() != size {
		t.Error("a failed encoding wrote to the log")
	}

	if raceEnabled {
		return // allocation figures under the race detector
	}
	rec := warmDoneRecord(t, 192)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := w.AppendJSON(3, rec, false); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendJSON of a warm done record: %.1f allocations, want 0", allocs)
	}
}

// BenchmarkWALAppendJSON appends a 176 KB record, a warm 192-point
// job's done record as versions that journaled results wrote it (no
// record the journal writes now is that large), to a log whose file is
// swapped for the null device, so the figure is the encoding and
// framing cost and the disk does not fill.
func BenchmarkWALAppendJSON(b *testing.B) {
	w, _, err := OpenWAL(filepath.Join(b.TempDir(), "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		b.Fatal(err)
	}
	w.f.Close()
	w.f = null
	defer w.Close()
	rec := warmDoneRecord(b, 192)
	blob, _ := json.Marshal(rec)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AppendJSON(3, rec, false); err != nil {
			b.Fatal(err)
		}
	}
}
