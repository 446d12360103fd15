package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, path string) (*WAL, []Record) {
	t.Helper()
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", path, err)
	}
	t.Cleanup(func() { w.Close() })
	return w, recs
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, recs := openT(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh wal returned %d records", len(recs))
	}
	want := []Record{
		{Type: 1, Payload: []byte(`{"a":1}`)},
		{Type: 2, Payload: []byte{}},
		{Type: 7, Payload: bytes.Repeat([]byte("x"), 3000)},
	}
	for i, r := range want {
		if err := w.Append(r.Type, r.Payload, i%2 == 0); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	w.Close()

	_, got := openT(t, path)
	if len(got) != len(want) {
		t.Fatalf("reopen: %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("record %d mismatch: %+v", i, got[i])
		}
	}
}

// TestWALTornTail chops and corrupts the file tail at several points;
// every prefix must recover the intact records and drop the rest, and
// the reopened log must accept fresh appends cleanly.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.log")
	w, _ := openT(t, ref)
	for i := 0; i < 5; i++ {
		if err := w.Append(byte(i+1), bytes.Repeat([]byte{byte(i)}, 50+i), true); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	whole, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	recCount := func(path string) ([]Record, int64) {
		w, recs := openT(t, path)
		size := w.Size()
		// The reopened log must keep working after a tail repair.
		if err := w.Append(99, []byte("post-repair"), true); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		w.Close()
		_, again := openT(t, path)
		if len(again) != len(recs)+1 || again[len(again)-1].Type != 99 {
			t.Fatalf("post-repair append not recovered: %d records", len(again))
		}
		return recs, size
	}

	// Truncation at every byte boundary: records recovered must be a
	// prefix, and never more than the bytes present allow.
	for cut := 0; cut <= len(whole); cut += 13 {
		path := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, size := recCount(path)
		if size > int64(cut) {
			t.Fatalf("cut %d: believed size %d exceeds file", cut, size)
		}
		for i, r := range recs {
			if r.Type != byte(i+1) {
				t.Fatalf("cut %d: record %d has type %d", cut, i, r.Type)
			}
		}
	}

	// Bit-flip corruption mid-file: everything before the flip's record
	// survives, nothing after is believed.
	path := filepath.Join(dir, "flip.log")
	mut := append([]byte(nil), whole...)
	mut[len(mut)/2] ^= 0xFF
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _ := recCount(path)
	if len(recs) >= 5 {
		t.Fatalf("corrupt log recovered all %d records", len(recs))
	}

	// Garbage appended to a clean log (the CI corruption probe does
	// exactly this): all real records survive, the garbage is dropped.
	path = filepath.Join(dir, "garbage.log")
	if err := os.WriteFile(path, append(append([]byte(nil), whole...), "garbage-tail"...), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _ = recCount(path)
	if len(recs) != 5 {
		t.Fatalf("garbage tail: recovered %d records, want 5", len(recs))
	}
}

// TestWALRewrite: a rewrite replaces the log's records, the handle
// keeps appending to the new file, and a rewrite that cannot rename
// leaves the old log authoritative — appends continue there and no
// temp file is left behind.
func TestWALRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _ := openT(t, path)
	for _, p := range []string{"old-1", "old-2", "old-3"} {
		if err := w.Append(1, []byte(p), true); err != nil {
			t.Fatal(err)
		}
	}
	state := []Record{{Type: 9, Payload: []byte("seq")}, {Type: 2, Payload: []byte("plan")}}
	if err := w.Rewrite(state); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(AppendFrame(nil, 9, []byte("seq"))) + len(AppendFrame(nil, 2, []byte("plan")))); w.Size() != want {
		t.Fatalf("size after rewrite = %d, want %d", w.Size(), want)
	}
	if err := w.Append(3, []byte("new"), true); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, recs := openT(t, path)
	if len(recs) != 3 || recs[0].Type != 9 || recs[1].Type != 2 || string(recs[2].Payload) != "new" {
		t.Fatalf("after rewrite+append got %+v", recs)
	}

	// A non-empty directory where the log was makes the rename fail.
	// The open handle still names the original file, moved aside here
	// so the test can read it back.
	w, _ = openT(t, path)
	moved := filepath.Join(dir, "moved.log")
	if err := os.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.Rewrite([]Record{{Type: 9, Payload: []byte("lost")}}); err == nil {
		t.Fatal("rewrite over a directory succeeded")
	}
	if err := w.Append(4, []byte("after"), true); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, recs = openT(t, moved)
	if len(recs) != 4 || string(recs[3].Payload) != "after" {
		t.Fatalf("old log after a failed rewrite: %+v", recs)
	}
	if stale, _ := filepath.Glob(filepath.Join(dir, ".wal.log-*")); len(stale) != 0 {
		t.Fatalf("failed rewrite left %v", stale)
	}
}

// TestOpenWALRemovesStaleRewrite: a crash between a rewrite's temp
// file and its rename leaves the temp behind; the log is intact and
// the next open removes the leftover.
func TestOpenWALRemovesStaleRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _ := openT(t, path)
	if err := w.Append(1, []byte("kept"), true); err != nil {
		t.Fatal(err)
	}
	w.Close()
	stale := filepath.Join(dir, ".wal.log-123")
	if err := os.WriteFile(stale, AppendFrame(nil, 9, []byte("half")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs := openT(t, path)
	if len(recs) != 1 || string(recs[0].Payload) != "kept" {
		t.Fatalf("reopen: %+v", recs)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale rewrite temp survived open: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	type state struct {
		Seq  int      `json:"seq"`
		Jobs []string `json:"jobs"`
	}
	var got state
	ok, err := ReadSnapshot(path, &got)
	if err != nil || ok {
		t.Fatalf("missing snapshot: ok=%v err=%v", ok, err)
	}
	want := state{Seq: 42, Jobs: []string{"sw-1", "sw-2"}}
	if err := WriteSnapshot(path, want); err != nil {
		t.Fatal(err)
	}
	ok, err = ReadSnapshot(path, &got)
	if err != nil || !ok {
		t.Fatalf("read snapshot: ok=%v err=%v", ok, err)
	}
	if got.Seq != want.Seq || len(got.Jobs) != 2 {
		t.Fatalf("snapshot round trip: %+v", got)
	}
	// Overwrite is atomic-replace, not append.
	want.Seq = 43
	if err := WriteSnapshot(path, want); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path, &got); err != nil || got.Seq != 43 {
		t.Fatalf("snapshot replace: seq=%d err=%v", got.Seq, err)
	}

	// A corrupt snapshot is an explicit error, not silent state loss.
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path, &got); err == nil {
		t.Fatal("corrupt snapshot read succeeded")
	}
}
