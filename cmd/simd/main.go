// Command simd serves simulations over HTTP: the declarative workload
// specs of internal/spec go in, cycle-accurate results come out.
// Duplicate in-flight requests coalesce into one simulation, repeat
// requests are answered byte-identically from the content-addressed
// result cache (simulations are bit-reproducible, so a spec's hash
// determines its result), and the run queue is bounded — saturation
// answers 503 + Retry-After derived from the requester's own class
// queue depth instead of queueing without limit.
//
// Execution is tenant-aware and weighted-fair (internal/sched):
// every request carries a tenant (the X-Tenant header) and a
// scheduling class (X-Class: "interactive" — the /run and /compare
// default — or "batch", the sweep default).
// Workers are shared by class weight (-class-weights, default
// interactive=4,batch=1) and round-robined fairly across the tenants
// inside each class, so one tenant's 100k-variant sweep can no
// longer starve another tenant's interactive /run. Each class has
// its own bounded queue (-queue is PER CLASS) and its own honest
// Retry-After. Scheduling changes only WHEN a variant runs, never its
// bytes — responses stay byte-identical.
//
// With -store DIR the result cache is two-tier: an in-memory LRU in
// front of a disk-backed store, so a restarted simd serves previously
// computed specs byte-identically (X-Cache: hit) without
// re-simulating. The store is size-bounded (-store-max-bytes) and
// evicts by least-recent access.
//
// The same binary scales out. `simd -shards N` spawns N worker
// processes of itself (each with its own store under -store DIR) and
// serves the identical API through a frontend router that assigns
// every spec to one worker by rendezvous-hashing its content hash —
// disjoint caches, no coordination, byte-identical responses.
// `simd -backends URL,URL,...` runs the same router over externally
// managed workers (one simd per machine). See internal/shard.
//
// The router degrades gracefully: a dead or circuit-open shard's
// requests fail over to the next shard in the spec's rendezvous rank
// order (tagged X-Failover), per-backend circuit breakers stop paying
// dial timeouts for dead shards, -request-timeout bounds any single
// simulation server-side (504 past budget), and -max-cycles rejects
// pathological cycle budgets at validation time.
//
// Router deployments are elastic: cluster membership is a versioned
// topology of stable shard IDs, and the admin endpoints resize it
// live. POST /admin/shards grows the cluster (the supervisor spawns
// the new workers; the router admits them at the next epoch), POST
// /admin/shards/{id}/drain migrates every result envelope the
// retiring shard holds to its new rendezvous owner — verified
// byte-identical — before retiring it, so warm keys never go cold. A
// router-side result cache (-router-cache-bytes) answers repeat /run
// and /compare requests at the router with zero backend round trips
// (X-Cache: router_hit).
//
// Endpoints (identical in every mode):
//
//	POST /run                {"spec": {...} | "scenario": "name", "model": "tl"|"rtl"}
//	POST /compare            {"spec": {...} | "scenario": "name"}
//	POST /sweep              {"base": {...} | "scenario": "name", "axes": [...]} -> NDJSON rows
//	                         (X-Sweep-ID names the sweep; grids up to -max-sweep-variants)
//	POST /sweep/analyze      same grid + {"metric", "objective", "top_k", "frontier"} -> one
//	                         analysis document (argmin/top-K/groups/Pareto frontier, with
//	                         explicit incomplete metadata when shards or variants failed)
//	GET  /sweep/{id}         the stored sweep's manifest: progress bitmaps and counts
//	GET  /sweep/{id}/resume  ?after=N replays the stored sweep's rows with index > N
//	POST /sweep/{id}/analyze analysis selector only; the grid comes from the stored
//	                         manifest (a completed sweep re-analyzes with zero simulation)
//	POST /results            stolen-variant write-back (X-Result-Key; router internal)
//	GET  /results?prefix=P   enumerate stored result keys (drain migration internal)
//	GET  /scenarios          the built-in scenario library with content hashes
//	GET  /healthz            liveness and load counters (aggregated per shard in router
//	                         modes, with per-shard breaker/process state and the
//	                         topology epoch + membership)
//
// Router modes additionally serve the admin surface:
//
//	GET  /admin/shards            the current topology (epoch + members)
//	POST /admin/shards            grow: {"count": N} spawns supervised workers,
//	                              or {"backends": [...]} admits external URLs
//	POST /admin/shards/{id}/drain migrate the shard's envelopes to their new
//	                              owners, then retire it; returns a drain report
//
// Usage:
//
//	simd [-addr :8080] [-workers N] [-queue N] [-cache N] [-store DIR] [-store-max-bytes N]
//	     [-request-timeout D] [-max-cycles N] [-max-sweep-variants N] [-attempt-timeout D]
//	     [-router-cache-bytes N] [-debug-addr ADDR] [-class-weights interactive=4,batch=1]
//	     [-shards N | -backends URL,URL,...]
//
// Every mode also serves GET /metrics (Prometheus text; the router
// re-exposes each worker's series under a shard label) and GET
// /version. -debug-addr serves net/http/pprof on a SEPARATE listener
// — profiling stays off the public port and off by default.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/farm"
	"repro/internal/service"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "run-farm workers per process (0 = one per CPU)")
	queue := flag.Int("queue", 0, "bounded job-queue depth (0 = 2x workers)")
	cache := flag.Int("cache", service.DefaultCacheEntries, "in-memory result-cache entries")
	storeDir := flag.String("store", "", "disk result-store directory (empty = memory-only; shard mode uses DIR/shard-N per worker)")
	storeMax := flag.Int64("store-max-bytes", 0, "disk store payload budget per process (0 = default)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request simulation deadline, queue wait included (0 = none); over budget answers 504")
	maxCycles := flag.Uint64("max-cycles", 0, "reject specs whose max_cycles exceeds this at validation time (0 = the global bound)")
	maxSweep := flag.Int("max-sweep-variants", service.DefaultMaxSweepVariants, "reject sweep grids whose Cartesian product exceeds this (every tier enforces the same cap)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "router-side timeout per backend attempt (0 = none); a hung shard is failed over")
	routerCache := flag.Int64("router-cache-bytes", service.DefaultCacheBytes, "router-side result-cache budget in bytes (<= 0 disables); repeat /run and /compare hits answer at the router with zero backend round trips")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off); NOT inherited by -shards workers")
	classWeights := flag.String("class-weights", "", "per-class worker shares as name=weight pairs, e.g. interactive=4,batch=1 (empty = those defaults)")
	shards := flag.Int("shards", 0, "spawn N local worker processes and serve the sharded router")
	backends := flag.String("backends", "", "comma-separated worker URLs to route over (externally managed shards)")
	flag.Parse()

	if *shards > 0 && *backends != "" {
		fatal("use -shards (local workers) or -backends (external workers), not both")
	}
	weights, err := parseClassWeights(*classWeights)
	if err != nil {
		fatal("%v", err)
	}
	fopt := fairOpts{weights: weights, weightsArg: *classWeights}
	serveDebug(*debugAddr)
	ropt := shard.Options{
		AttemptTimeout:   *attemptTimeout,
		MaxCycles:        *maxCycles,
		MaxSweepVariants: *maxSweep,
		RouterCacheBytes: *routerCache,
	}
	switch {
	case *shards > 0:
		runSupervised(*addr, *shards, *workers, *queue, *cache, *storeDir, *storeMax, *reqTimeout, ropt, fopt)
	case *backends != "":
		// Tolerate "url, url" spacing: an invisible leading space would
		// otherwise make that shard's URLs unparseable and its whole
		// keyspace 502 against a perfectly healthy backend.
		var urls []string
		for _, u := range strings.Split(*backends, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		ropt.Backends = urls
		runRouter(*addr, ropt, nil, "")
	default:
		runSingle(*addr, *workers, *queue, *cache, *storeDir, *storeMax, *reqTimeout, *maxCycles, *maxSweep, fopt)
	}
}

// fairOpts carries the tenant-scheduling flags: parsed weights for
// the in-process service and the raw -class-weights argument for
// worker inheritance.
type fairOpts struct {
	weights    map[string]int
	weightsArg string
}

// parseClassWeights decodes -class-weights: comma-separated
// name=weight pairs with positive integer weights. Class NAMES are
// validated by service.New (the scheduler owns that vocabulary);
// this only enforces the pair syntax. Empty input means defaults.
func parseClassWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("-class-weights: %q is not name=weight", pair)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-class-weights: weight %q for class %q must be a positive integer", val, name)
		}
		weights[strings.TrimSpace(name)] = w
	}
	return weights, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simd: "+format+"\n", args...)
	os.Exit(1)
}

// serveDebug starts the pprof listener when -debug-addr is set. It is
// deliberately a separate listener serving http.DefaultServeMux (where
// the net/http/pprof import registers), so profiling endpoints never
// ride the public API port. A bind failure is fatal: asking for
// profiling and silently not getting it is worse than not starting.
// Supervised workers do NOT inherit the flag — N processes cannot
// share one debug port; profile a worker by running it standalone.
func serveDebug(addr string) {
	if addr == "" {
		return
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("debug listener: %v", err)
	}
	fmt.Printf("simd: pprof on %s\n", ln.Addr())
	go func() {
		if err := newServer(http.DefaultServeMux).Serve(ln); err != nil {
			fmt.Fprintf(os.Stderr, "simd: debug listener: %v\n", err)
		}
	}()
}

// Connection-level timeouts of every listener simd opens. A peer gets
// readHeaderTimeout to send its request headers and an idle keep-alive
// connection is dropped after idleTimeout, so slow or abandoned
// clients cannot pin connections forever. idleTimeout stays above the
// 90 s after which Go's default transport — what the router reaches
// its workers with — closes an idle connection itself, so a worker
// never closes one the router is about to post on. There is
// deliberately no ReadTimeout or WriteTimeout: /sweep streams for as
// long as its grid simulates and a profile download runs as long as it
// was asked to.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer returns an http.Server for handler with those timeouts.
func newServer(handler http.Handler) *http.Server {
	return &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serve runs an HTTP server over ln until SIGINT/SIGTERM, then drains
// it gracefully and runs shutdown hooks (pool close, supervisor stop).
func serve(ln net.Listener, handler http.Handler, onShutdown func()) {
	server := newServer(handler)
	errs := make(chan error, 1)
	go func() { errs <- server.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errs:
		// The accept loop died on its own: still run the shutdown
		// hooks (supervisor stop above all) so a router that falls
		// over never strands its worker processes.
		if onShutdown != nil {
			onShutdown()
		}
		fatal("%v", err)
	case s := <-sig:
		fmt.Printf("simd: %v — draining\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	server.Shutdown(ctx)
	if onShutdown != nil {
		onShutdown()
	}
}

// listen binds addr and prints the startup banner with the ACTUAL
// bound address — the machine-readable readiness signal the shard
// supervisor (and the smoke harness) parse, which is why it must
// carry the resolved port even when addr said ":0".
func listen(addr, mode string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("simd: serving on %s (%s)\n", ln.Addr(), mode)
	return ln
}

// runSingle is one worker process: the whole service on one
// weighted-fair scheduler.
func runSingle(addr string, workers, queue, cache int, storeDir string, storeMax int64, reqTimeout time.Duration, maxCycles uint64, maxSweep int, fopt fairOpts) {
	srv, err := service.New(service.Options{
		Workers: workers, Queue: queue, CacheEntries: cache,
		StoreDir: storeDir, StoreMaxBytes: storeMax,
		RequestTimeout: reqTimeout, MaxCycles: maxCycles,
		MaxSweepVariants: maxSweep,
		ClassWeights:     fopt.weights,
	})
	if err != nil {
		fatal("%v", err)
	}
	w := workers
	if w <= 0 {
		w = farm.DefaultWorkers()
	}
	persistence := "memory-only"
	if storeDir != "" {
		persistence = "store " + storeDir
	}
	ln := listen(addr, fmt.Sprintf("%d workers, cache %d entries, %s", w, cache, persistence))
	serve(ln, srv.Handler(), srv.Close)
}

// runRouter serves the sharded frontend with the given options (the
// backend list filled in by the caller). sup is non-nil in supervised
// mode and is stopped on shutdown — and on every failure path here,
// so a router that cannot bind its port (or build at all) never exits
// leaving the spawned workers orphaned.
func runRouter(addr string, opt shard.Options, sup *shard.Supervisor, note string) {
	cleanup := func() {
		if sup != nil {
			sup.Stop()
		}
	}
	opt.Supervisor = sup
	rt, err := shard.New(opt)
	if err != nil {
		cleanup()
		fatal("%v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		cleanup()
		rt.Close()
		fatal("%v", err)
	}
	if note == "" {
		note = fmt.Sprintf("router over %d external backends", len(opt.Backends))
	}
	fmt.Printf("simd: serving on %s (%s)\n", ln.Addr(), note)
	serve(ln, rt.Handler(), func() {
		rt.Close()
		cleanup()
	})
}

// runSupervised spawns n worker copies of this binary and routes over
// them. Each worker gets its own store directory (DIR/shard-i), so
// the per-shard result stores stay disjoint and a respawned or
// restarted worker replays exactly its own slice of the keyspace. The
// workers inherit the deadline, cycle-cap and fairness flags, so
// cluster and single-process deployments enforce identical limits.
func runSupervised(addr string, n, workers, queue, cache int, storeDir string, storeMax int64, reqTimeout time.Duration, ropt shard.Options, fopt fairOpts) {
	bin, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	argsFor := func(i int) []string {
		args := []string{
			"-workers", strconv.Itoa(workers),
			"-queue", strconv.Itoa(queue),
			"-cache", strconv.Itoa(cache),
			"-store-max-bytes", strconv.FormatInt(storeMax, 10),
			"-request-timeout", reqTimeout.String(),
			"-max-cycles", strconv.FormatUint(ropt.MaxCycles, 10),
			"-max-sweep-variants", strconv.Itoa(ropt.MaxSweepVariants),
		}
		if fopt.weightsArg != "" {
			args = append(args, "-class-weights", fopt.weightsArg)
		}
		if storeDir != "" {
			args = append(args, "-store", filepath.Join(storeDir, fmt.Sprintf("shard-%d", i)))
		}
		return args
	}
	sup, err := shard.Spawn(bin, n, argsFor, os.Stderr)
	if err != nil {
		fatal("%v", err)
	}
	// The per-shard banner: pids and addresses, parsed by the smoke
	// harness to target individual workers (kill/restart drills).
	for _, p := range sup.Procs() {
		fmt.Printf("simd: shard %d pid=%d addr=%s\n", p.Index, p.Pid, p.Addr)
	}
	ropt.Backends = sup.URLs()
	runRouter(addr, ropt, sup, fmt.Sprintf("router over %d local shards", n))
}
