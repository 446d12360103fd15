package sweep

import (
	"context"
	"errors"
	"fmt"
	"time"

	"earlyrelease/internal/obs"
)

// WorkSource is the coordinator surface a worker pulls from. The
// Coordinator implements it directly (sweepd's embedded local workers
// call straight in); Client implements it over HTTP, framing leases
// and completions in the checksummed wire envelope (sweepd -role
// worker).
type WorkSource interface {
	RegisterWorker(name string) (RegisterReply, error)
	HeartbeatWorker(workerID string) error
	// LeaseShard returns the next shard, or nil when the queue is empty.
	LeaseShard(workerID string) (*LeaseGrant, error)
	// RenewLease extends a lease this worker holds; the coordinator
	// verifies ownership (ErrWrongWorker otherwise).
	RenewLease(workerID, leaseID string) error
	CompleteShard(req *CompleteRequest) error
}

// Worker pulls leased shards from a coordinator and runs them on a
// local Core-recycling Engine, reporting every result under the
// content key the lease named. One process can run several Workers;
// each keeps its own engine (and therefore its own recycled cores).
type Worker struct {
	// Source is the coordinator, direct or over HTTP.
	Source WorkSource
	// Name labels the worker in the coordinator's registry (default:
	// the assigned worker id).
	Name string
	// Engine executes leased points (nil = zero Engine: GOMAXPROCS
	// pool, private in-memory cache).
	Engine *Engine
	// Poll is the idle sleep between empty lease requests (0 = 25ms).
	Poll time.Duration
}

// Run registers the worker and pulls work until ctx is canceled; a
// worker killed mid-lease (process death, cancellation) simply stops
// renewing and the coordinator requeues its shard after the TTL.
// Transient source errors are retried; ErrUnknownWorker triggers
// re-registration so workers survive a coordinator restart.
func (w *Worker) Run(ctx context.Context) error {
	eng := w.Engine
	if eng == nil {
		eng = &Engine{}
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}

	var id string
	var ttl time.Duration
	register := func() error {
		rep, err := w.Source.RegisterWorker(w.Name)
		if err != nil {
			return err
		}
		id, ttl = rep.WorkerID, rep.LeaseTTL
		return nil
	}
	if err := register(); err != nil {
		return fmt.Errorf("sweep: worker registration: %w", err)
	}

	idle := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		grant, err := w.Source.LeaseShard(id)
		if err != nil {
			if errors.Is(err, ErrUnknownWorker) {
				if rerr := register(); rerr != nil {
					err = rerr
				} else {
					continue
				}
			}
			// Transient (network, coordinator restarting): back off.
			if !sleepCtx(ctx, poll*4) {
				return nil
			}
			continue
		}
		if grant == nil {
			idle++
			if idle%40 == 0 {
				w.Source.HeartbeatWorker(id) // liveness while the queue is dry
			}
			if !sleepCtx(ctx, poll) {
				return nil
			}
			continue
		}
		idle = 0
		w.runShard(ctx, eng, id, ttl, grant)
	}
}

// runShard executes one leased shard and reports it. A renewal
// goroutine keeps the lease alive while the simulations run, so a
// shard slower than the TTL is not requeued under a healthy worker.
func (w *Worker) runShard(ctx context.Context, eng *Engine, workerID string, ttl time.Duration, grant *LeaseGrant) {
	renewCtx, stopRenew := context.WithCancel(ctx)
	defer stopRenew()
	if ttl > 0 {
		go func() {
			for sleepCtx(renewCtx, ttl/3) {
				w.Source.RenewLease(workerID, grant.LeaseID)
			}
		}()
	}

	points := make([]Point, len(grant.Items))
	for i, it := range grant.Items {
		points[i] = it.Point
	}
	simStart := time.Now()
	res, err := eng.RunPointsCtx(ctx, points, nil)
	simEnd := time.Now()
	if ctx.Err() != nil {
		// Drained mid-shard: report nothing. The unstarted points carry
		// synthetic context errors the coordinator must never believe, so
		// the whole completion is dropped — the lease simply lapses and
		// the coordinator requeues the shard for a live worker. Finished
		// points stayed in this engine's cache, so nothing is lost when
		// that cache is shared.
		return
	}

	req := &CompleteRequest{LeaseID: grant.LeaseID, WorkerID: workerID,
		Outcomes: make([]WireOutcome, len(grant.Items))}
	for i, it := range grant.Items {
		o := WireOutcome{Key: it.Key}
		switch {
		case err != nil:
			o.Err = err.Error()
		case res.Outcomes[i].Err != "":
			o.Err = res.Outcomes[i].Err
		default:
			o.Result = res.Outcomes[i].Result
		}
		req.Outcomes[i] = o
	}
	// Piggyback the worker-side timing spans (DESIGN.md §4.9): wire
	// decode (remote leases only), the simulation window, and cache
	// write time rendered as a span ending at the simulation's end.
	// The coordinator stamps these with this lease's worker id and
	// folds them into the job's timeline and the latency histograms.
	if !grant.decodeStart.IsZero() {
		req.Spans = append(req.Spans, obs.Span{Name: "w:decode", Ref: grant.ShardID,
			StartNS: grant.decodeStart.UnixNano(), EndNS: grant.decodeEnd.UnixNano()})
	}
	req.Spans = append(req.Spans, obs.Span{Name: "w:simulate", Ref: grant.ShardID,
		StartNS: simStart.UnixNano(), EndNS: simEnd.UnixNano(),
		Detail: fmt.Sprintf("%d points", len(grant.Items))})
	if res != nil {
		if res.CachePutNS > 0 {
			req.Spans = append(req.Spans, obs.Span{Name: "w:cacheput", Ref: grant.ShardID,
				StartNS: simEnd.UnixNano() - res.CachePutNS, EndNS: simEnd.UnixNano(),
				Detail: "local cache, aggregate"})
		}
		if err == nil {
			req.PointNS = res.PointNS
		}
	}
	stopRenew()
	// A stale-lease rejection means we lost the TTL race and the shard
	// was requeued — drop the report, the requeued copy supersedes it.
	w.Source.CompleteShard(req)
}

// sleepCtx sleeps d or until ctx cancels; false means canceled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
