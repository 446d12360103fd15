package sweep

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"earlyrelease/internal/obs"
)

// TestMemoryAndDurableAgree drives the same operation scripts — the
// FuzzJournalCompaction seeds and a few hundred random ones — through
// a memory-only and a durable coordinator side by side, halts skipped.
// The journal must be the only difference between them: after every
// operation both report the same collected Results, the same counters
// (compactions aside), the same queue status down to shard and lease
// ids (journal size aside) and the same timelines.
func TestMemoryAndDurableAgree(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 300
	}
	scripts := append([][]byte(nil), journalScriptSeeds...)
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < n; i++ {
		ops := make([]byte, 1+rng.Intn(48))
		rng.Read(ops)
		scripts = append(scripts, ops)
	}
	for i, ops := range scripts {
		ok := t.Run(fmt.Sprint(i), func(t *testing.T) {
			cfg := CoordConfig{LeaseTTL: time.Minute, MaxAttempts: 2, Planner: ShardPlanner{MaxPoints: 2}}
			memClk, durClk := &fakeClock{t: time.Unix(1000, 0)}, &fakeClock{t: time.Unix(1000, 0)}
			mem := newOpScript(t, memClk, newTestCoordinator(t, memClk, cfg))
			cfg.StateDir = t.TempDir()
			dur := newOpScript(t, durClk, openTestCoordinator(t, durClk, cfg))
			got := [2]map[int]string{{}, {}}
			for step, b := range ops {
				var views [2]coordView
				for k, s := range []*opScript{mem, dur} {
					s.do(b)
					settleJournal(t, s.c)
					views[k] = viewOf(t, s, got[k])
				}
				if !reflect.DeepEqual(views[0], views[1]) {
					t.Fatalf("script %v, op %d: the coordinators differ\nmemory-only %+v\ndurable     %+v",
						ops, step, views[0], views[1])
				}
			}
		})
		if !ok {
			return // one diverging script says enough
		}
	}
}

// coordView is what a coordinator shows its callers, minus the
// journal's own figures.
type coordView struct {
	Results   map[int]string // collected jobs' Results as JSON, by submission
	Counters  CoordCounters
	Status    FederationStatus
	Timelines []obs.Timeline
}

// viewOf snapshots the script's coordinator once every finished job's
// Results has reached its submitter; got accumulates them across calls.
func viewOf(t *testing.T, s *opScript, got map[int]string) coordView {
	t.Helper()
	finished := int(s.c.Counters().JobsDone)
	for end := time.Now().Add(5 * time.Second); len(got) < finished; {
		for i, ch := range s.results {
			select {
			case res := <-ch:
				blob, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = string(blob)
			default:
			}
		}
		if time.Now().After(end) {
			t.Fatalf("%d jobs finished, %d Results arrived", finished, len(got))
		}
		time.Sleep(50 * time.Microsecond)
	}
	v := coordView{Results: map[int]string{}, Counters: s.c.Counters(), Status: s.c.Status(),
		Timelines: s.c.rec.Dump()}
	for i, r := range got {
		v.Results[i] = r
	}
	v.Counters.JournalCompactions = 0
	v.Status.JournalBytes, v.Status.JournalErr = 0, ""
	return v
}
