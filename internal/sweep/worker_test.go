package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// leaseSource is a WorkSource that hands out one grant and captures
// the completion the worker reports for it.
type leaseSource struct {
	mu       sync.Mutex
	grant    *LeaseGrant
	complete chan *CompleteRequest
}

func (s *leaseSource) RegisterWorker(string) (RegisterReply, error) {
	return RegisterReply{WorkerID: "wk-1"}, nil
}

func (s *leaseSource) HeartbeatWorker(string, TraceCache) error { return nil }

func (s *leaseSource) LeaseShard(string) (*LeaseGrant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.grant
	s.grant = nil
	return g, nil
}

func (s *leaseSource) RenewLease(string, string) error { return nil }

func (s *leaseSource) CompleteShard(req *CompleteRequest) error {
	s.complete <- req
	return nil
}

// TestWorkerReportsLeaseUnderGrantKeys runs a mixed grant through a
// Worker: a (workload, scale) group, a point of another workload, and
// a bad-config item under a fabricated key. The completion must carry
// the grant's keys, outcomes byte-identical to a direct engine run,
// per-point times only for the points that ran, and only the
// w:simulate span — a worker holds no cache, so it has no cache-write
// time to report.
func TestWorkerReportsLeaseUnderGrantKeys(t *testing.T) {
	pts := Grid{Workloads: []string{"go"}, Policies: []string{"conv", "extended"},
		IntRegs: []int{40, 48}, Scale: 2000}.Expand()
	pts = append(pts,
		Point{Workload: "tomcatv", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: 2000},
		Point{Workload: "go", Policy: "bogus", IntRegs: 48, FPRegs: 48, Scale: 2000})
	bad := len(pts) - 1
	grant := &LeaseGrant{LeaseID: "ls-1", ShardID: "sh-1", Items: make([]WorkItem, len(pts))}
	for i, pt := range pts {
		key := "fabricated-key"
		if i != bad {
			var err error
			if key, err = pt.Key(); err != nil {
				t.Fatal(err)
			}
		}
		grant.Items[i] = WorkItem{Point: pt, Key: key}
	}
	direct, err := (&Engine{}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Outcomes[bad].Err == "" {
		t.Fatal("the bad-config point ran")
	}

	src := &leaseSource{grant: grant, complete: make(chan *CompleteRequest, 1)}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go (&Worker{Source: src, Parallel: 2, Poll: time.Millisecond}).Run(ctx)
	var req *CompleteRequest
	select {
	case req = <-src.complete:
	case <-time.After(30 * time.Second):
		t.Fatal("worker reported no completion")
	}

	if req.LeaseID != "ls-1" || req.WorkerID != "wk-1" {
		t.Errorf("completion for lease %q by %q", req.LeaseID, req.WorkerID)
	}
	if len(req.Outcomes) != len(pts) || len(req.PointNS) != len(pts) {
		t.Fatalf("%d outcomes and %d times for %d items", len(req.Outcomes), len(req.PointNS), len(pts))
	}
	for i, o := range req.Outcomes {
		want := direct.Outcomes[i]
		if o.Key != grant.Items[i].Key {
			t.Errorf("item %d reported under key %q, granted %q", i, o.Key, grant.Items[i].Key)
		}
		got, _ := json.Marshal(o.Result)
		ref, _ := json.Marshal(want.Result)
		if o.Err != want.Err || !bytes.Equal(got, ref) {
			t.Errorf("item %d (%s): err %q result %s, direct run err %q result %s",
				i, pts[i], o.Err, got, want.Err, ref)
		}
		if ns := req.PointNS[i]; (i == bad) != (ns == 0) {
			t.Errorf("item %d (%s): time %d ns", i, pts[i], ns)
		}
	}
	if len(req.Spans) != 1 || req.Spans[0].Name != "w:simulate" || req.Spans[0].Ref != "sh-1" {
		t.Errorf("spans %+v, want exactly one w:simulate for sh-1", req.Spans)
	}
}
