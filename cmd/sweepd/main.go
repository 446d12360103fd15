// Command sweepd runs the sweep service. In its default coordinator
// role it serves the client API (POST grids, poll or stream progress,
// shared content-addressed result cache) and the federation API:
// submitted grids are planned into cost-balanced shards and executed
// under TTL leases by workers — embedded local ones and any number of
// sweepd worker processes joined over HTTP. See DESIGN.md §4.3.
//
// Coordinator (the default role):
//
//	sweepd -addr :8080 -cache sweep-cache
//	sweepd -role coordinator -local-workers 0        # pure coordinator
//	sweepd -state /var/lib/sweepd                    # durable: survives restarts
//
// With -state the coordinator journals every queue transition (a WAL
// that compacts by atomically rewriting itself, DESIGN.md §4.3
// "Durability") and a restart with the same -state resumes every
// interrupted sweep and exploration exactly where it was: completed
// shards are served from the recovered state, never re-simulated, and
// the finished results are byte-identical to an uninterrupted run.
// SIGINT/SIGTERM shut down gracefully (final compaction + cache save);
// even a hard kill loses nothing but uncommitted simulation time,
// because the WAL replays.
//
//	curl -d '{"workloads":["tomcatv"],"int_regs":[40,48,64]}' localhost:8080/sweep
//	curl localhost:8080/sweep/sw-1
//	curl localhost:8080/sweep/sw-1/stream
//	curl localhost:8080/cache
//	curl localhost:8080/federation
//
// Worker — joins a coordinator, pulls leased shards, runs them on a
// local Core-recycling pool and reports results by content key:
//
//	sweepd -role worker -join http://coordinator:8080 -parallel 8
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"earlyrelease/internal/sweep"
	"earlyrelease/internal/tenant"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweepd: ")
	var (
		role         = flag.String("role", "coordinator", "coordinator or worker")
		addr         = flag.String("addr", ":8080", "coordinator listen address")
		cachePath    = flag.String("cache", "", "persistent result cache: a store directory (empty = in-memory, or <state>/cache with -state)")
		stateDir     = flag.String("state", "", "coordinator state directory: journal for crash-resume (empty = memory only)")
		parallel     = flag.Int("parallel", 0, "simulations per worker engine (0 = GOMAXPROCS)")
		localWorkers = flag.Int("local-workers", 1, "embedded workers in the coordinator (0 = pure coordinator)")
		leaseTTL     = flag.Duration("lease-ttl", 30*time.Second, "work lease lifetime between renewals")
		shardPoints  = flag.Int("shard-points", 0, "max points per shard (0 = default)")
		join         = flag.String("join", "", "coordinator URL to join (worker role)")
		name         = flag.String("name", "", "worker name in the coordinator registry (default: hostname)")
		retainJobs   = flag.Int("retain", 0, "finished jobs retained for polling (0 = default 128); size above the concurrent client population")
		tokens       = flag.String("tokens", "", "tenant token file (JSON, see DESIGN.md §4.8); empty = open anonymous access")
		logRequests  = flag.Bool("log-requests", true, "structured per-request logging (method, route, tenant, status, latency)")
	)
	var tenantSpecs []string
	flag.Func("tenant", "provision one tenant, name:token[:rate=R][:burst=B][:grid=N][:pending=N][:jobs=N] (repeatable; implies enforcement)",
		func(s string) error { tenantSpecs = append(tenantSpecs, s); return nil })
	flag.Parse()
	// sweepd links no profiler, so sample no heap profile: the
	// profiler's bucket table is resident memory every process would
	// otherwise carry.
	runtime.MemProfileRate = 0
	paceHeap()

	switch *role {
	case "worker":
		runWorker(*join, *name, *parallel)
	case "coordinator":
		registry := loadRegistry(*tokens, tenantSpecs)
		runCoordinator(*addr, *cachePath, *stateDir, *parallel, *localWorkers,
			*leaseTTL, *shardPoints, *retainJobs, registry, *logRequests)
	default:
		log.Fatalf("unknown role %q (want coordinator or worker)", *role)
	}
}

// sweepdGCPercent is the collector's pacing in both roles: a cycle
// starts once the heap has grown by half the live heap, not by all of
// it, and the heap goal's floor is 2 MB instead of 4 MB. A sweepd
// process holds 0.8–2.5 MB of live objects, so at the runtime's 4 MB
// floor garbage made up most of its resident heap; halving the floor
// cuts about 2 MB of RSS for a few more GC cycles (DESIGN.md §4.8).
const sweepdGCPercent = 50

// paceHeap sets sweepd's GC pacing unless the environment sets GOGC,
// which stays the operator's override.
func paceHeap() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(sweepdGCPercent)
	}
}

// gcPacing names the collector's pacing in effect, as GOGC spells it,
// for each role's start-up line.
func gcPacing() string {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	if p := int64(s[0].Value.Uint64()); p >= 0 {
		return "GOGC=" + strconv.FormatInt(p, 10)
	}
	return "GOGC=off"
}

// loadRegistry assembles the tenant registry from the -tokens file and
// any -tenant flags. With neither, the registry is open: unlimited
// anonymous access, exactly the pre-tenancy behavior.
func loadRegistry(tokensPath string, specs []string) *tenant.Registry {
	registry := tenant.Open()
	if tokensPath != "" {
		var err error
		registry, err = tenant.Load(tokensPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	for _, spec := range specs {
		t, err := tenant.ParseSpec(spec)
		if err != nil {
			log.Fatal(err)
		}
		if err := registry.Add(t); err != nil {
			log.Fatal(err)
		}
	}
	if registry.Enforcing() {
		log.Printf("tenancy enforced: %d tenants", len(registry.Snapshot()))
	}
	return registry
}

func runCoordinator(addr, cachePath, stateDir string, parallel, localWorkers int,
	leaseTTL time.Duration, shardPoints, retainJobs int, registry *tenant.Registry,
	logRequests bool) {
	if cachePath == "" && stateDir != "" {
		cachePath = filepath.Join(stateDir, "cache")
	}
	cache := sweep.NewCache()
	if cachePath != "" {
		var err error
		cache, err = sweep.OpenCache(cachePath)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("cache %s: %d results", cachePath, cache.Len())
	}

	cfg := ServerConfig{
		Cache:          cache,
		WorkerParallel: parallel,
		LocalWorkers:   localWorkers,
		LeaseTTL:       leaseTTL,
		Planner:        sweep.ShardPlanner{MaxPoints: shardPoints},
		StateDir:       stateDir,
		Tenants:        registry,
		RetainJobs:     retainJobs,
	}
	if logRequests {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if localWorkers <= 0 {
		cfg.LocalWorkers = -1
		log.Printf("pure coordinator: waiting for workers to join")
	}
	srv, err := OpenServerWith(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, rj := range srv.Coordinator().Recovered() {
		log.Printf("resuming %s: %d/%d points already done", rj.Label, rj.Done, rj.Total)
	}
	log.Printf("coordinator listening on %s (%d local workers, lease TTL %s, %s)",
		addr, max(localWorkers, 0), leaseTTL, gcPacing())

	// Serve until SIGINT/SIGTERM, then drain: in-flight handlers get a
	// grace period, the coordinator compacts its journal (Close), and
	// the cache persists — so the next -state start replays only the
	// records that rebuild the queue.
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}()
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	srv.Close()
	if err := cache.Close(); err != nil {
		log.Printf("cache save: %v", err)
	}
	log.Printf("coordinator stopped; state saved")
}

func runWorker(join, name string, parallel int) {
	if join == "" {
		log.Fatal("worker role needs -join URL of a coordinator")
	}
	if name == "" {
		name, _ = os.Hostname()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &sweep.Worker{
		Source:   sweep.NewClient(join),
		Name:     name,
		Parallel: parallel,
	}
	log.Printf("worker %q joining %s (%s)", name, join, gcPacing())
	if err := w.Run(ctx); err != nil {
		log.Fatal(err)
	}
	log.Printf("worker stopped")
}
