package sweep

import (
	"context"
	"errors"
	"fmt"
	"time"

	"earlyrelease/internal/obs"
	"earlyrelease/internal/workloads"
)

// WorkSource is the coordinator surface a worker pulls from. The
// Coordinator implements it directly (sweepd's embedded local workers
// call straight in); Client implements it over HTTP, framing leases
// and completions in the checksummed wire envelope (sweepd -role
// worker).
type WorkSource interface {
	RegisterWorker(name string) (RegisterReply, error)
	// HeartbeatWorker keeps an idle worker registered and reports its
	// process's trace cache.
	HeartbeatWorker(workerID string, traces TraceCache) error
	// LeaseShard returns the next shard, or nil when the queue is empty.
	LeaseShard(workerID string) (*LeaseGrant, error)
	// RenewLease extends a lease this worker holds; the coordinator
	// verifies ownership (ErrWrongWorker otherwise).
	RenewLease(workerID, leaseID string) error
	CompleteShard(req *CompleteRequest) error
}

// Worker pulls leased shards from a coordinator and runs them on an
// Engine's pool through RunLease, reporting every result under the
// content key the lease named. A worker holds no cache: the
// coordinator keys, caches and tallies every point, and a completion is
// the only way a worker's results reach the corpus. One process can
// run several Workers; each builds its own engine in Run and recycles
// its cores across shards.
type Worker struct {
	// Source is the coordinator, direct or over HTTP.
	Source WorkSource
	// Name labels the worker in the coordinator's registry (default:
	// the assigned worker id).
	Name string
	// Parallel is the engine's pool size (0 = GOMAXPROCS).
	Parallel int
	// Poll is the idle sleep between empty lease requests (0 = 25ms).
	Poll time.Duration
}

// Run registers the worker and pulls work until ctx is canceled; a
// worker killed mid-lease (process death, cancellation) simply stops
// renewing and the coordinator requeues its shard after the TTL.
// Transient source errors are retried; ErrUnknownWorker triggers
// re-registration so workers survive a coordinator restart.
func (w *Worker) Run(ctx context.Context) error {
	eng := &Engine{Parallel: w.Parallel}
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
			if idle%40 == 1 {
				// Liveness while the queue is dry, and the traces the
				// work so far has left memoized.
				n, b := workloads.TraceCacheStats()
				w.Source.HeartbeatWorker(id, TraceCache{Entries: n, Bytes: b})
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

	simStart := time.Now()
	outs, pointNS, err := eng.RunLease(ctx, grant)
	simEnd := time.Now()
	if err != nil {
		// Drained mid-shard: report nothing. The unstarted points carry
		// synthetic context errors the coordinator must never believe, so
		// the whole completion is dropped — the lease simply lapses and
		// the coordinator requeues the shard for a live worker.
		return
	}

	req := &CompleteRequest{LeaseID: grant.LeaseID, WorkerID: workerID,
		Outcomes: outs, PointNS: pointNS}
	// Piggyback the worker-side timing spans (DESIGN.md §4.9): wire
	// decode (remote leases only) and the simulation window. The
	// coordinator stamps these with this lease's worker id and folds
	// them into the job's timeline and the latency histograms.
	if !grant.decodeStart.IsZero() {
		req.Spans = append(req.Spans, obs.Span{Name: "w:decode", Ref: grant.ShardID,
			StartNS: grant.decodeStart.UnixNano(), EndNS: grant.decodeEnd.UnixNano()})
	}
	req.Spans = append(req.Spans, obs.Span{Name: "w:simulate", Ref: grant.ShardID,
		StartNS: simStart.UnixNano(), EndNS: simEnd.UnixNano(),
		Detail: fmt.Sprintf("%d points", len(grant.Items))})
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
