package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateWALGolden = flag.Bool("update-wal-golden", false,
	"rewrite testdata/wal/*.log from the current coordinator")

// TestWALGolden drives a durable coordinator through one scripted
// sequence on a fake clock and requires the log it writes, raw and
// then compacted, to equal the committed goldens byte for byte. The
// script covers every queue transition the journal records: a
// submission with a key error, a completion, a submission served
// partly from the cache, a lease-time strip, a renewal, a rejected
// payload, an expiry that requeues and one that abandons, failed
// outcomes, a collected job and an anonymous job left pending. The
// state dir starts empty, so the raw log begins with the first
// submission: opening an empty log does not compact it.
func TestWALGolden(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	c := openTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, MaxAttempts: 2,
		Planner: ShardPlanner{MaxPoints: 2}, StateDir: dir})
	w, _ := c.RegisterWorker("w")
	pts := testPoints(12)
	bad := pts[0]
	bad.Policy = "no-such-policy"

	step := func() {
		t.Helper()
		settleJournal(t, c)
		clk.advance(time.Second)
	}
	lease := func() *LeaseGrant {
		t.Helper()
		g, err := c.LeaseShard(w.WorkerID)
		if err != nil || g == nil {
			t.Fatalf("lease: %+v %v", g, err)
		}
		step()
		return g
	}
	complete := func(g *LeaseGrant, outs []WireOutcome) error {
		t.Helper()
		err := c.CompleteShard(&CompleteRequest{LeaseID: g.LeaseID, WorkerID: w.WorkerID, Outcomes: outs})
		step()
		return err
	}

	// sw-1: four misses in two shards, and a point that has no key.
	submitJournaled(t, c, "sw-1", []Point{pts[0], pts[1], pts[2], pts[3], bad})
	step()
	g := lease()
	if err := complete(g, fuzzOutcomes(g, false)); err != nil {
		t.Fatal(err)
	}
	// sw-2 overlaps sw-1: the completed shard's points are hits, the
	// pending shard's points are planned again beside two new ones.
	submitJournaled(t, c, "sw-2", pts[:6])
	step()
	g = lease()
	if err := c.RenewLease(w.WorkerID, g.LeaseID); err != nil {
		t.Fatal(err)
	}
	step()
	if err := complete(g, fuzzOutcomes(g, false)); err != nil { // sw-1 finishes and is collected
		t.Fatal(err)
	}
	// sw-2's shards hold points sw-1 just put in the cache: leasing
	// strips them.
	g = lease()
	bad1 := fuzzOutcomes(g, false)
	bad1[0].Key = "not-the-planned-key"
	if err := complete(g, bad1); err == nil {
		t.Fatal("mismatched key accepted")
	}
	lease() // attempt 2 of the rejected shard
	clk.advance(2 * time.Minute)
	c.Status() // expiry burns the last attempt: the shard is abandoned
	step()
	for {
		g, err := c.LeaseShard(w.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			break
		}
		step()
		if err := complete(g, fuzzOutcomes(g, true)); err != nil {
			t.Fatal(err)
		}
	}
	// sw-3 and an anonymous job plan the same two points: once sw-3's
	// completion caches them, leasing the other shard strips it whole.
	submitJournaled(t, c, "sw-3", pts[6:8])
	step()
	submitJournaled(t, c, "", pts[6:8])
	step()
	g = lease()
	if err := complete(g, fuzzOutcomes(g, false)); err != nil {
		t.Fatal(err)
	}
	if g, err := c.LeaseShard(w.WorkerID); g != nil || err != nil {
		t.Fatalf("a shard of cached points was granted: %+v %v", g, err)
	}
	step()
	// Left in the log: sw-4's first shard expired once and leased again,
	// its second pending, then an anonymous job partly served by hits.
	submitJournaled(t, c, "sw-4", pts[8:12])
	step()
	lease()
	clk.advance(2 * time.Minute)
	c.Status()
	step()
	lease()
	submitJournaled(t, c, "", pts[2:6])
	step()

	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// The two logs together hold every record type. Only compaction
	// writes the sequence record, and a fresh log is not compacted.
	types := map[byte]bool{}
	for _, r := range walRecords(t, dir) {
		types[r.Type] = true
	}
	c.Compact()
	compacted, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range walRecords(t, dir) {
		types[r.Type] = true
	}
	for typ := recTypeJob; typ <= recTypeSeq; typ++ {
		if !types[typ] {
			t.Errorf("the script journals no type-%d record", typ)
		}
	}

	for name, got := range map[string][]byte{"raw.log": raw, "compacted.log": compacted} {
		golden := filepath.Join("testdata", "wal", name)
		if *updateWALGolden {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s (%d bytes, golden %d)", name, golden, len(got), len(want))
		}
	}
}
