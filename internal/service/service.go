// Package service is the simulation service: an HTTP JSON API that
// accepts declarative workload specs (internal/spec), runs them on
// the simulation kernels, and serves results at scale.
//
// Three mechanisms carry the load so the simulators don't have to:
//
//   - Content-addressed result cache. Every simulation here is
//     bit-reproducible, so a spec's SHA-256 content hash fully
//     determines its result; repeat requests are answered from an LRU
//     cache with the byte-identical body of the first response,
//     without re-simulation. With a store directory configured, the
//     cache is two-tier: an in-memory LRU in front of a disk-backed
//     result store (internal/store), so cached replays survive
//     process restarts byte-identically.
//   - Request coalescing (singleflight). Duplicate requests that
//     arrive while the first is still simulating attach to the
//     in-flight job and all receive its result — N identical
//     submissions cost one simulation.
//   - Tenant-aware weighted-fair execution with backpressure. Jobs
//     execute through a sched.Scheduler over workers sized to the
//     host's cores: requests queue per (tenant, class) — interactive
//     /run and /compare outweigh sweep backfill, tenants share their
//     class equally — and each class has its own admission cap; at
//     the cap, submissions of THAT class are rejected with 503 plus
//     a Retry-After derived from that class's own backlog instead of
//     queueing unboundedly (or being blamed for another class's
//     backlog). Tenant identity rides the X-Tenant request header,
//     class the X-Class header.
//
// Endpoints: POST /run, POST /compare, POST /sweep (NDJSON parameter
// grids; see sweep.go), POST /sweep/analyze (grid aggregates —
// argmin/top-K/groups/Pareto frontier; see analyze.go), GET
// /scenarios, GET /healthz.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Options sizes a server.
type Options struct {
	// Workers is the run-farm worker count (<= 0: one per CPU).
	Workers int
	// Queue is the bounded job-queue depth PER CLASS (<= 0: 2x
	// workers): a full batch queue rejects batch submissions and
	// nothing else.
	Queue int
	// CacheEntries caps the in-memory result cache (<= 0:
	// DefaultCacheEntries).
	CacheEntries int
	// StoreDir roots the disk-backed result store; empty runs the
	// server memory-only (results die with the process).
	StoreDir string
	// StoreMaxBytes bounds the disk store's payload (<= 0:
	// store.DefaultMaxBytes). Ignored without StoreDir.
	StoreMaxBytes int64
	// RequestTimeout bounds one simulation job, measured from
	// submission (queue wait counts — that is the time the client
	// experiences). A job over budget is interrupted at the next cycle
	// slice and answered 504; the worker is back in the pool
	// immediately, never poisoned by a pathological spec. <= 0: no
	// deadline.
	RequestTimeout time.Duration
	// MaxCycles caps any accepted spec's max_cycles at validation
	// time, rejecting pathological cycle budgets with a 400 before
	// they cost a worker (<= 0: the global spec.MaxRunCycles bound).
	MaxCycles uint64
	// MaxSweepVariants caps one sweep grid's full Cartesian product
	// (<= 0: DefaultMaxSweepVariants). The shard router carries the
	// same option; both tiers resolve it through ResolveSweepGrid, so
	// the limit cannot drift between a backend and its frontend.
	MaxSweepVariants int
	// ClassWeights overrides the scheduler's per-class dispatch
	// weights, keyed by class wire name ("interactive", "batch").
	// Missing classes keep their defaults; New rejects unknown names.
	ClassWeights map[string]int
}

// DefaultCacheEntries is the default result-cache capacity.
const DefaultCacheEntries = 1024

// DefaultCacheBytes is the byte budget of an in-memory result cache:
// the worker's memory tier holds at most this many body bytes whatever
// its entry cap says (a body larger than the budget is persisted to
// disk but not held in memory), and it is the router cache's default
// budget (-router-cache-bytes). Response bodies are a few hundred
// bytes, but the memory tier also holds sweep manifests and whatever
// POST /results is sent — up to 1 MiB each — so the entry cap alone
// bounds nothing an operator chose.
const DefaultCacheBytes = 64 << 20

// Counters is a snapshot of the server's load counters.
type Counters struct {
	// Jobs is the number of simulation jobs executed (a /compare
	// counts once; it runs both models inside one job).
	Jobs uint64 `json:"jobs"`
	// CacheHits counts requests answered from the result cache.
	CacheHits uint64 `json:"cache_hits"`
	// Coalesced counts requests that attached to an in-flight job.
	Coalesced uint64 `json:"coalesced"`
	// Rejected counts requests refused with 503 under backpressure.
	Rejected uint64 `json:"rejected"`
	// StoreHits counts the cache hits served from the disk store
	// (a subset of CacheHits).
	StoreHits uint64 `json:"store_hits"`
	// Timeouts counts simulations aborted 504 at the request deadline.
	Timeouts uint64 `json:"timeouts"`
}

// Server is the simulation service.
type Server struct {
	sched *sched.Scheduler
	mux   *http.ServeMux
	cache *lru.Cache
	// disk is the persistent result tier behind the memory LRU; nil
	// when the server runs memory-only.
	disk *store.Store

	mu      sync.Mutex
	flights map[string]*flight

	jobs, hits, coalesced, rejected, storeHits, timeouts atomic.Uint64
	workers, queue                                       int
	requestTimeout                                       time.Duration
	maxSpecCycles                                        uint64

	// sweeps is the sweep engine behind the /sweep endpoints, bound to
	// this server through workerTier (sweep.go).
	sweeps *SweepEngine

	// manifestMu serializes sweep-manifest read-merge-write
	// checkpoints, so two streams of the same sweep id never lose
	// each other's progress bits.
	manifestMu sync.Mutex
	// since is when this process started serving — the monotonic
	// anchor /healthz and /version expose so cluster consumers can
	// tell a respawned worker's counter reset from counters that
	// really went backwards.
	since time.Time

	// reg is the metric registry behind GET /metrics; httpMetrics the
	// per-endpoint request instrumentation; the counters below are the
	// metrics incremented outside metrics.go (streamed sweep rows,
	// manifest checkpoints, resume streams, stolen-result write-backs).
	reg              *obs.Registry
	httpMetrics      *obs.HTTPMetrics
	sweepRows        *obs.Counter
	sweepCheckpoints *obs.Counter
	sweepResumes     *obs.Counter
	stolenResults    *obs.Counter

	// The scenario library is immutable for the server's lifetime:
	// the /scenarios body and the by-name index are built once in New
	// instead of re-hashing every spec per request.
	scenariosBody  []byte
	scenarioByName map[string]spec.Spec
}

// flight is one in-progress simulation job; duplicate requests wait
// on done and read body/status. terminal marks a 503 caused by pool
// shutdown (not saturation), so waiters that coalesced onto the
// refused flight surface the same "stop retrying" signal the leader
// got — without it, every coalesced sweep variant would burn one full
// Retry-After backoff against a server that is going away.
type flight struct {
	done     chan struct{}
	body     []byte
	status   int
	terminal bool
	// timing is the leader's per-stage breakdown (set before done
	// closes); coalesced waiters share it, cache hits have none.
	timing *Timing
}

// dispositionClosed marks a 503 produced by a closed (shutting-down)
// pool rather than a saturated one — terminal, never worth retrying.
// It is internal routing state, not an X-Cache value: writeBody never
// emits a disposition for 503s.
const dispositionClosed = "closed"

// New starts a server (its scheduler's workers run until Close). With
// a StoreDir it opens (or resumes) the disk-backed result store
// there, so a restarted server replays previously computed results
// byte-identically.
func New(opt Options) (*Server, error) {
	weights := make(map[sched.Class]int, len(opt.ClassWeights))
	for name, w := range opt.ClassWeights {
		c, ok := sched.ParseClass(name)
		if !ok {
			return nil, fmt.Errorf("service: unknown scheduling class %q in ClassWeights", name)
		}
		weights[c] = w
	}
	if opt.CacheEntries <= 0 {
		opt.CacheEntries = DefaultCacheEntries
	}
	var disk *store.Store
	if opt.StoreDir != "" {
		var err error
		disk, err = store.Open(opt.StoreDir, opt.StoreMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	maxSpecCycles := opt.MaxCycles
	if maxSpecCycles == 0 {
		maxSpecCycles = spec.MaxRunCycles
	}
	scheduler := sched.New(sched.Options{Workers: opt.Workers, Queue: opt.Queue, Weights: weights})
	s := &Server{
		sched:          scheduler,
		cache:          lru.NewCache(DefaultCacheBytes, opt.CacheEntries),
		disk:           disk,
		flights:        make(map[string]*flight),
		workers:        scheduler.Workers(),
		queue:          scheduler.QueueCap(),
		requestTimeout: opt.RequestTimeout,
		maxSpecCycles:  maxSpecCycles,
		since:          time.Now(),
	}
	s.scenariosBody, s.scenarioByName = ScenarioLibrary()
	s.initMetrics()
	s.sweeps = NewSweepEngine(workerTier{s}, s.scenarioByName, opt.MaxSweepVariants, s.sweepRows, s.sweepResumes)
	s.mux = http.NewServeMux()
	// Every endpoint goes through the instrumentation middleware: the
	// request-ID contract and the per-endpoint series cover the whole
	// surface, /metrics and /version included (a scrape snapshots its
	// counters before its own increment, so it never counts itself).
	handle := func(pattern string, h http.Handler) {
		s.mux.Handle(pattern, s.httpMetrics.Wrap(pattern, h))
	}
	handle("/run", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.handleExec(w, r, false) }))
	handle("/compare", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.handleExec(w, r, true) }))
	handle("/sweep", http.HandlerFunc(s.sweeps.HandleSweep))
	handle("/sweep/analyze", http.HandlerFunc(s.sweeps.HandleAnalyze))
	handle("/sweep/{id}", http.HandlerFunc(s.handleSweepStatus))
	handle("/sweep/{id}/resume", http.HandlerFunc(s.sweeps.HandleResume))
	handle("/sweep/{id}/analyze", http.HandlerFunc(s.sweeps.HandleStoredAnalyze))
	handle("/results", http.HandlerFunc(s.handleResults))
	handle("/batch", http.HandlerFunc(s.handleBatch))
	handle("/scenarios", http.HandlerFunc(s.handleScenarios))
	handle("/healthz", http.HandlerFunc(s.handleHealthz))
	handle("/metrics", s.reg.Handler())
	handle("/version", VersionHandler(s.since))
	return s, nil
}

// ScenarioLibrary builds the wire form of the built-in scenario set:
// the exact /scenarios response body and the name → spec index behind
// it. Every process in a deployment — single server or shard router
// plus backends — derives the library from the same spec data, so a
// scenario name resolves to the same content hash everywhere. The
// library is static configuration, so a failure here is a programming
// error, not a request error.
func ScenarioLibrary() (body []byte, byName map[string]spec.Spec) {
	scenarios := spec.Scenarios()
	infos := make([]ScenarioInfo, 0, len(scenarios))
	byName = make(map[string]spec.Spec, len(scenarios))
	for _, sp := range scenarios {
		hash, err := sp.Hash()
		if err != nil {
			panic(fmt.Sprintf("service: hashing library scenario %s: %v", sp.Name, err))
		}
		kinds := make([]string, len(sp.Masters))
		for i, g := range sp.Masters {
			kinds[i] = g.Kind
		}
		infos = append(infos, ScenarioInfo{Name: sp.Name, Hash: hash, Masters: len(sp.Masters), Kinds: kinds})
		byName[sp.Name] = sp
	}
	body, err := json.Marshal(infos)
	if err != nil {
		panic(fmt.Sprintf("service: encoding scenario library: %v", err))
	}
	return body, byName
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the scheduler's queues, stops the workers, and flushes
// the disk store's startup index so the next Open is O(1) file reads.
// An index flush failure is logged, not fatal: the next Open falls
// back to a loud full rescan and loses nothing but startup time.
func (s *Server) Close() {
	s.sched.Close()
	if s.disk != nil {
		if err := s.disk.Close(); err != nil {
			log.Printf("store: flushing startup index at close: %v", err)
		}
	}
}

// CountersSnapshot returns the current load counters.
func (s *Server) CountersSnapshot() Counters {
	return Counters{
		Jobs:      s.jobs.Load(),
		CacheHits: s.hits.Load(),
		Coalesced: s.coalesced.Load(),
		Rejected:  s.rejected.Load(),
		StoreHits: s.storeHits.Load(),
		Timeouts:  s.timeouts.Load(),
	}
}

// RunRequest is the body of POST /run and POST /compare — the wire
// contract shared with frontends (the shard router forwards these
// verbatim). Exactly one of Spec and Scenario selects the workload.
type RunRequest struct {
	// Spec is an inline workload spec.
	Spec *spec.Spec `json:"spec,omitempty"`
	// Scenario names a spec from the built-in library (GET /scenarios).
	Scenario string `json:"scenario,omitempty"`
	// Model selects the abstraction level for /run: "tl" (default) or
	// "rtl". Ignored by /compare, which always runs both.
	Model string `json:"model,omitempty"`
}

// RunResponse is the deterministic body of POST /run. Wall-clock time
// is deliberately absent: the body is a pure function of the spec, so
// cached replays are byte-identical to the first response.
type RunResponse struct {
	Name       string     `json:"name"`
	Hash       string     `json:"hash"`
	Model      string     `json:"model"`
	Cycles     uint64     `json:"cycles"`
	Completed  bool       `json:"completed"`
	Violations uint64     `json:"violations"`
	Stats      *stats.Bus `json:"stats,omitempty"`
}

// CompareResponse is the deterministic body of POST /compare: one
// Table 1 accuracy row.
type CompareResponse struct {
	Name      string  `json:"name"`
	Hash      string  `json:"hash"`
	RTLCycles uint64  `json:"rtl_cycles"`
	TLMCycles uint64  `json:"tl_cycles"`
	DiffPct   float64 `json:"diff_pct"`
	Completed bool    `json:"completed"`
}

// ScenarioInfo is one entry of GET /scenarios.
type ScenarioInfo struct {
	Name    string   `json:"name"`
	Hash    string   `json:"hash"`
	Masters int      `json:"masters"`
	Kinds   []string `json:"kinds"`
}

// errorResponse is the body of every non-2xx reply. RequestID echoes
// the request's X-Request-ID so a client error report names the exact
// request in the logs; it is injected at write time (error bodies are
// never cached, so the injection can't leak into replayed 200s).
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// MaxBodyBytes bounds a request body at either tier; a spec is small.
const MaxBodyBytes = 1 << 20

// ResolveRunRequest parses a /run-shaped body and selects the workload
// it names — the inline spec or the library scenario, exactly one. It
// is the one reading of the RunRequest contract: the worker goes on to
// validate and compile the spec, the shard router only hashes it to
// route, then forwards the original bytes. Only the first MaxBodyBytes
// of body are read.
func ResolveRunRequest(body []byte, byName map[string]spec.Spec) (RunRequest, spec.Spec, error) {
	req, err := decodeRunRequest(body[:min(len(body), MaxBodyBytes)])
	if err != nil {
		return req, spec.Spec{}, err
	}
	switch {
	case req.Spec != nil && req.Scenario != "":
		return req, spec.Spec{}, errors.New("request has both spec and scenario; send one")
	case req.Spec != nil:
		return req, *req.Spec, nil
	case req.Scenario != "":
		found, ok := byName[req.Scenario]
		if !ok {
			return req, spec.Spec{}, fmt.Errorf("unknown scenario %q", req.Scenario)
		}
		return req, found, nil
	}
	return req, spec.Spec{}, errors.New("request needs a spec or a scenario name")
}

// decodeRunRequest strict-decodes a /run-shaped body: unknown fields and
// trailing data are errors. The spec package's fast reader answers when
// it can; when it declines, encoding/json (spec.DecodeStrict) decodes the
// same bytes and words any error, so the format and its error text are
// encoding/json's.
func decodeRunRequest(body []byte) (RunRequest, error) {
	if fast, ok := spec.ReadRunBody(body); ok {
		return RunRequest(fast), nil
	}
	var req RunRequest
	if err := spec.DecodeStrict(body, &req); err != nil {
		return req, fmt.Errorf("parsing request: %w", err)
	}
	return req, nil
}

// decodeRequest parses and validates a /run-shaped request body (a
// POST /batch line is one too), resolving a library scenario name if
// used. It returns the decoded request (for the
// model selector), the workload spec, its content hash and the
// compiled workload.
func (s *Server) decodeRequest(body []byte) (RunRequest, spec.Spec, string, core.Workload, error) {
	req, sp, err := ResolveRunRequest(body, s.scenarioByName)
	if err != nil {
		return req, sp, "", core.Workload{}, err
	}
	if err := s.checkCycleCap(sp); err != nil {
		return req, sp, "", core.Workload{}, err
	}
	w, err := core.FromSpec(sp)
	if err != nil {
		return req, sp, "", core.Workload{}, err
	}
	hash, err := sp.Hash()
	if err != nil {
		return req, sp, "", core.Workload{}, err
	}
	return req, sp, hash, w, nil
}

// checkCycleCap enforces the server's configured max_cycles cap — a
// validation-time rejection, so a pathological cycle budget costs a
// 400, not a worker. The global spec.MaxRunCycles bound is enforced
// by spec.Validate regardless; this is the deployment's (usually
// tighter) limit.
func (s *Server) checkCycleCap(sp spec.Spec) error {
	if sp.MaxCycles > s.maxSpecCycles {
		return fmt.Errorf("spec %s: max_cycles %d exceeds the server cap %d", sp.Name, sp.MaxCycles, s.maxSpecCycles)
	}
	return nil
}

// checkGridCycleCaps runs check against every distinct max_cycles
// value the grid can produce WITHOUT expanding it: a variant's
// effective budget is either the last max_cycles axis value applied
// or the base spec's, so checking the base (or each value of the
// last max_cycles axis against a base clone) is exact at O(axis
// values) cost — a 100k-variant grid's cycle cap costs a handful of
// clones, not 100k spec builds. check is the serving tier's own cap
// (SweepTier.CheckCycleCap), so the message names the right limit.
func checkGridCycleCaps(grid sweep.Grid, check func(spec.Spec) error) error {
	var last *sweep.Axis
	for i := range grid.Axes {
		if grid.Axes[i].Param == sweep.ParamMaxCycles {
			last = &grid.Axes[i]
		}
	}
	if last == nil {
		return check(grid.Base)
	}
	for _, v := range last.Values {
		sp := grid.Base.Clone()
		if err := sweep.Apply(&sp, sweep.ParamMaxCycles, v.V); err != nil {
			return fmt.Errorf("sweep: axis %q value %v: %w", sweep.ParamMaxCycles, v.V, err)
		}
		if err := check(sp); err != nil {
			return err
		}
	}
	return nil
}

// handleExec serves POST /run — one workload through the model the
// request selects — and, with compare set, POST /compare: both models,
// one accuracy row, whatever selector the request carries.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request, compare bool) {
	if r.Method != http.MethodPost {
		WriteError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes))
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	req, sp, hash, wl, err := s.decodeRequest(body)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	m, err := execModel(req.Model, compare)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := ParseIdent(r, sched.Interactive)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveCached(w, r, m.Key(hash), hash, id, m.compute(sp, hash, wl))
}

// execModel resolves what one /run request executes from its model
// selector — or, with compare set, what /compare does whatever selector
// the request carries.
func execModel(name string, compare bool) (SweepModel, error) {
	if compare {
		return SweepModel{Compare: true}, nil
	}
	m, err := sweepModel(name)
	if err != nil || m.Compare {
		return SweepModel{}, fmt.Errorf("unknown model %q (want tl or rtl)", name)
	}
	return m, nil
}

// Ident is one request's scheduling identity: the tenant whose fair
// queue the work joins and the priority class it dispatches under.
type Ident struct {
	Tenant string
	Class  sched.Class
}

// ParseIdent derives the request's scheduling identity from its
// headers, at whichever tier sees the request first: tenant from
// X-Tenant (absent: the shared sched.DefaultTenant bucket; invalid: a
// 400-worthy error, so bad identifiers can't pollute metric label
// space), class from X-Class (absent: def — Interactive for /run and
// /compare, Batch for sweep and analyze paths).
func ParseIdent(r *http.Request, def sched.Class) (Ident, error) {
	tenant := r.Header.Get(TenantHeader)
	switch {
	case tenant == "":
		tenant = sched.DefaultTenant
	case !sched.ValidTenant(tenant):
		return Ident{}, fmt.Errorf("%s %q is not a tenant identifier (1-%d characters of [A-Za-z0-9._-])",
			TenantHeader, tenant, sched.MaxTenantLen)
	}
	class := def
	if v := r.Header.Get(ClassHeader); v != "" {
		c, ok := sched.ParseClass(v)
		if !ok {
			return Ident{}, fmt.Errorf("%s %q is not a scheduling class (want interactive or batch)", ClassHeader, v)
		}
		class = c
	}
	return Ident{Tenant: tenant, Class: class}, nil
}

// Header is the identity as the header block a router stamps on every
// backend hop the request becomes, so a sweep's variants stay in the
// caller's tenant and class through failover and work-stealing.
func (id Ident) Header() http.Header {
	return http.Header{TenantHeader: {id.Tenant}, ClassHeader: {id.Class.String()}}
}

// errDeadline marks a simulation cut short by the server's request
// deadline; executeOnce's job wrapper turns it into a 504.
var errDeadline = errors.New("request deadline exceeded")

// interruptFrom adapts a job context into the simulator's Interrupt
// hook. A context that can never be cancelled returns nil, selecting
// the single-shot uninterruptible run path — byte-for-byte the
// pre-deadline behavior.
func interruptFrom(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// compute returns the deterministic body builder for what the model
// selects.
func (m SweepModel) compute(sp spec.Spec, hash string, wl core.Workload) func(context.Context, *Timing) ([]byte, error) {
	if m.Compare {
		return computeCompare(sp, hash, wl)
	}
	return computeRun(sp, hash, m.core, wl)
}

// computeRun returns the deterministic body builder for one
// single-model run; it executes on a pool worker, under the job's
// deadline context.
func computeRun(sp spec.Spec, hash string, model core.Model, wl core.Workload) func(context.Context, *Timing) ([]byte, error) {
	return func(ctx context.Context, tm *Timing) ([]byte, error) {
		start := time.Now()
		res := core.Run(wl, model, core.Options{Interrupt: interruptFrom(ctx)})
		tm.Simulate = time.Since(start)
		if res.Interrupted {
			return nil, errDeadline
		}
		start = time.Now()
		body, err := json.Marshal(RunResponse{
			Name:       sp.Name,
			Hash:       hash,
			Model:      model.String(),
			Cycles:     uint64(res.Cycles),
			Completed:  res.Completed,
			Violations: res.Violations,
			Stats:      res.Stats,
		})
		tm.Encode = time.Since(start)
		return body, err
	}
}

// computeCompare returns the deterministic body builder for one
// accuracy row; it executes on a pool worker, under the job's
// deadline context.
func computeCompare(sp spec.Spec, hash string, wl core.Workload) func(context.Context, *Timing) ([]byte, error) {
	return func(ctx context.Context, tm *Timing) ([]byte, error) {
		start := time.Now()
		row, interrupted := core.CompareInterruptible(wl, interruptFrom(ctx))
		tm.Simulate = time.Since(start)
		if interrupted {
			return nil, errDeadline
		}
		start = time.Now()
		body, err := json.Marshal(CompareResponse{
			Name:      sp.Name,
			Hash:      hash,
			RTLCycles: uint64(row.RTLCycles),
			TLMCycles: uint64(row.TLMCycles),
			DiffPct:   row.ErrPct,
			Completed: row.Completed,
		})
		tm.Encode = time.Since(start)
		return body, err
	}
}

// lookup probes the two cache tiers for key: the in-memory LRU, then
// the disk store. A disk hit is promoted into the LRU so the next
// probe stays off the filesystem. Either tier's hit is the
// byte-identical body of the original computation.
func (s *Server) lookup(key string) ([]byte, bool) {
	if body, ok := s.lookupMemory(key); ok {
		return body, true
	}
	return s.lookupDisk(key, (*store.Store).Get)
}

// lookupDisk probes the disk tier with one of the store's reads — Get,
// or Peek for a request whose store miss is already counted — and
// promotes a hit into the memory tier.
func (s *Server) lookupDisk(key string, read func(*store.Store, string) ([]byte, bool)) ([]byte, bool) {
	if s.disk == nil {
		return nil, false
	}
	body, ok := read(s.disk, key)
	if ok {
		s.cache.Put(key, body)
		s.hits.Add(1)
		s.storeHits.Add(1)
	}
	return body, ok
}

// lookupMemory probes only the in-memory tier. The sweep first pass
// and executeOnce's re-checks use it: disk-held bodies resolve
// through executeOnce's own disk probes, so the store's hit/miss
// counters stay one-probe-per-request. A memory hit still refreshes
// the disk entry's LRU recency — without the Touch, results served
// from memory look cold on disk and are the first evicted, exactly
// the entries a restart most wants back.
func (s *Server) lookupMemory(key string) ([]byte, bool) {
	if body, ok := s.cache.Get(key); ok {
		s.hits.Add(1)
		if s.disk != nil {
			s.disk.Touch(key)
		}
		return body, true
	}
	return nil, false
}

// persist writes a computed body into both cache tiers.
func (s *Server) persist(key string, body []byte) {
	s.cache.Put(key, body)
	if s.disk != nil {
		// Best-effort: a full disk degrades the store to memory-only
		// behavior rather than failing the request that computed the
		// result.
		_ = s.disk.Put(key, body)
	}
}

// executeOnce resolves one cache key to a response: served from a
// cache tier ("hit"), attached to an in-flight duplicate
// ("coalesced"), or computed as a new job on the weighted-fair
// scheduler under id's tenant and class ("miss") — in that order.
// compute runs on a worker and must be deterministic in its output
// bytes; those exact bytes are cached, persisted and replayed
// (scheduling order can never touch them). A saturated class queue
// yields a 503 status (with disposition "" for the request that hit
// the cap, "coalesced" for duplicates that had attached to it); the
// caller chooses whether that is terminal (HTTP request path) or
// retryable (sweep rows, which pass recheck=true on retries so the
// disk tier isn't hit/miss-counted once per backoff round — the
// silent flight-leader re-probe below still rescues a disk-resident
// result). Coalescing wins over classing: a duplicate rides the
// leader's queue position whatever class either request declared,
// because attaching to in-flight work is always cheaper than a fairer
// queue slot. A non-nil error means ctx ended before the result was
// ready — the job itself still completes and fills the cache.
func (s *Server) executeOnce(ctx context.Context, key string, id Ident, compute func(context.Context, *Timing) ([]byte, error), recheck bool) (status int, body []byte, disposition string, timing *Timing, err error) {
	probe := s.lookup
	if recheck {
		probe = s.lookupMemory
	}
	if body, ok := probe(key); ok {
		return http.StatusOK, body, "hit", nil, nil
	}

	s.mu.Lock()
	// Re-check the memory tier under the lock: the in-flight job for
	// this key may have filled the cache and retired its flight
	// between the lock-free probe above and here — without this, that
	// race starts a duplicate simulation. Memory only: no disk IO
	// ever runs under s.mu, which serializes flight creation across
	// ALL keys.
	if body, ok := s.lookupMemory(key); ok {
		s.mu.Unlock()
		return http.StatusOK, body, "hit", nil, nil
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.coalesced.Add(1)
		select {
		case <-f.done:
			if f.terminal {
				return f.status, f.body, dispositionClosed, nil, nil
			}
			return f.status, f.body, "coalesced", f.timing, nil
		case <-ctx.Done():
			return 0, nil, "", nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	// This request now leads the flight for key, so it can re-probe
	// the disk tier outside every lock: if a tiny LRU evicted what a
	// retired flight persisted (or a restart left the result on disk
	// only), the stored body is rescued here instead of re-simulated,
	// and any duplicates that coalesced meanwhile read it from the
	// flight. Silent probe (Peek): this request's store miss was
	// already counted by the primary lookup.
	if body, ok := s.lookupDisk(key, (*store.Store).Peek); ok {
		f.status = http.StatusOK
		f.body = body
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(f.done)
		return http.StatusOK, body, "hit", nil, nil
	}

	// The deadline clock starts at submission, not at execution: the
	// queue wait is part of what the client experiences, so a job that
	// waited out most of its budget in the queue gets only the
	// remainder to simulate.
	var deadline time.Time
	if s.requestTimeout > 0 {
		deadline = time.Now().Add(s.requestTimeout)
	}
	submitted := time.Now()
	_, serr := s.sched.Submit(id.Tenant, id.Class, func() {
		// Queue wait is measured from submission to worker pickup —
		// the stage a saturated pool inflates; it plus simulate and
		// encode is the X-Timing breakdown the leader's response (and
		// every coalesced waiter's) carries.
		tm := &Timing{Queue: time.Since(submitted)}
		f.timing = tm
		defer func() {
			if p := recover(); p != nil {
				f.status = http.StatusInternalServerError
				f.body, _ = json.Marshal(errorResponse{Error: fmt.Sprintf("simulation failed: %v", p)})
			}
			if f.status == http.StatusOK {
				s.persist(key, f.body)
			}
			s.mu.Lock()
			delete(s.flights, key)
			s.mu.Unlock()
			close(f.done)
		}()
		// The job context carries ONLY the server's own deadline —
		// never the client's: a vanished client must not cancel the
		// simulation that is about to fill the cache for the next one.
		jobCtx := context.Background()
		if !deadline.IsZero() {
			var cancel context.CancelFunc
			jobCtx, cancel = context.WithDeadline(jobCtx, deadline)
			defer cancel()
		}
		s.jobs.Add(1)
		body, err := compute(jobCtx, tm)
		switch {
		case errors.Is(err, errDeadline):
			s.timeouts.Add(1)
			// Interrupted, not failed: the worker is already free (the
			// simulator returned at a cycle-slice boundary). 504, never
			// cached or persisted — a retry under a lighter load may
			// finish within budget.
			f.status = http.StatusGatewayTimeout
			f.body, _ = json.Marshal(errorResponse{Error: fmt.Sprintf(
				"simulation aborted: exceeded the server's %v request deadline", s.requestTimeout)})
		case err != nil:
			panic(err)
		default:
			f.status = http.StatusOK
			f.body = body
		}
	})
	if serr != nil {
		// Fill the flight before closing it: requests that already
		// coalesced onto this key must read a real 503, not a
		// zero-valued response. A saturated class queue is transient
		// (disposition "", the retryable signal); a closed scheduler
		// is terminal (disposition dispositionClosed) so retry loops
		// don't spin against a server that is shutting down.
		disposition := ""
		msg := "run queue saturated; retry"
		if !errors.Is(serr, sched.ErrSaturated) {
			disposition = dispositionClosed
			msg = "service shutting down"
			f.terminal = true
		}
		f.status = http.StatusServiceUnavailable
		f.body, _ = json.Marshal(errorResponse{Error: msg})
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(f.done)
		// Rejected counts 503 *responses*, so it is incremented by
		// serveCached, not here: a sweep row retrying this same
		// saturation dozens of times sends no 503 and must not move
		// the backpressure metric.
		return f.status, f.body, disposition, nil, nil
	}
	select {
	case <-f.done:
		return f.status, f.body, "miss", f.timing, nil
	case <-ctx.Done():
		return 0, nil, "", nil, ctx.Err()
	}
}

// serveCached is the HTTP face of executeOnce: the resolved response
// is written with its cache-disposition header, a client that gave up
// gets nothing (the job still completes and fills the cache). A
// computed response (miss or coalesced — anything that waited on the
// simulation) carries the X-Timing stage breakdown; cache hits have
// no stages to report.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key, hash string, id Ident, compute func(context.Context, *Timing) ([]byte, error)) {
	status, body, disposition, timing, err := s.executeOnce(r.Context(), key, id, compute, false)
	if err != nil {
		return
	}
	if timing != nil {
		w.Header().Set(TimingHeader, timing.Header())
	}
	if status == http.StatusServiceUnavailable {
		if disposition == "" {
			// This request led the refused flight and is about to
			// receive a saturation 503 — the one event Rejected counts
			// (coalesced waiters and shutdown 503s don't).
			s.rejected.Add(1)
		}
		if disposition == dispositionClosed {
			// Tell machine clients (the shard router's retry loops)
			// that this 503 is terminal — the scheduler is shutting
			// down, not busy — so they fail over instead of backing
			// off against a server that will never recover.
			w.Header().Set("X-Terminal", "1")
		}
		// Backpressure responses carry no cache disposition.
		disposition = ""
	}
	if status != http.StatusOK {
		// Flight error bodies are shared between coalesced waiters;
		// each response gets its own request ID stamped at write time.
		body = injectRequestID(body, obs.RequestIDFrom(r.Context()))
	}
	s.writeBody(w, status, body, disposition, hash, id.Class)
}

// injectRequestID stamps rid into an errorResponse body. Unparseable
// bodies (or an empty rid) pass through unchanged.
func injectRequestID(body []byte, rid string) []byte {
	if rid == "" {
		return body
	}
	var e errorResponse
	if json.Unmarshal(body, &e) != nil || e.Error == "" {
		return body
	}
	e.RequestID = rid
	out, err := json.Marshal(e)
	if err != nil {
		return body
	}
	return out
}

// handleScenarios serves GET /scenarios: the built-in spec library,
// prebuilt in New.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.scenariosBody)
}

// Health is the body of GET /healthz: liveness, pool occupancy, load
// counters and (with a disk store) store occupancy. The shard router
// aggregates one of these per backend, so the schema is the wire
// contract between a worker process and its frontend.
type Health struct {
	OK  bool `json:"ok"`
	Pid int  `json:"pid"`
	// Workers/QueueCap are the scheduler's static shape (QueueCap is
	// per class); Queued/InFlight its instantaneous load summed over
	// every class and tenant.
	Workers  int `json:"workers"`
	QueueCap int `json:"queue_capacity"`
	Queued   int `json:"queued"`
	InFlight int `json:"in_flight"`
	// RetryAfter is the WORST per-class backoff (seconds) a 503 would
	// carry right now — the conservative one-number pacing signal for
	// frontends; per-class honesty lives in Sched.
	RetryAfter int `json:"retry_after"`
	// Sched is the weighted-fair scheduler's per-class and active
	// per-tenant queue state, keyed with the metrics label vocabulary
	// (class, tenant) — per-class queue depths, in-flight counts,
	// admission rejections and honest per-class retry_after.
	Sched        *sched.Snapshot `json:"sched,omitempty"`
	CacheEntries int             `json:"cache_entries"`
	Store        *store.Stats    `json:"store,omitempty"`
	// Since is when this process started serving and UptimeSeconds its
	// age — monotonic per process life. A respawned worker restarts
	// both at zero alongside its counters, which is how a frontend
	// aggregating Counters across shards tells "the worker restarted"
	// (since jumped forward) from "the counters went backwards".
	Since         time.Time `json:"since"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	// GoVersion is the toolchain that built this worker (the full
	// build identity lives at GET /version).
	GoVersion string `json:"go_version,omitempty"`
	Counters
}

// HealthSnapshot returns the current Health body.
func (s *Server) HealthSnapshot() Health {
	var diskStats *store.Stats
	if s.disk != nil {
		st := s.disk.StatsSnapshot()
		diskStats = &st
	}
	schedSnap := s.sched.Snapshot()
	return Health{
		OK: true, Pid: os.Getpid(),
		Workers: s.workers, QueueCap: s.queue,
		Queued: s.sched.Queued(), InFlight: s.sched.InFlight(),
		RetryAfter:    s.retryAfterSeconds(),
		Sched:         &schedSnap,
		CacheEntries:  s.cache.Len(),
		Store:         diskStats,
		Since:         s.since,
		UptimeSeconds: time.Since(s.since).Seconds(),
		GoVersion:     ReadVersion(s.since).GoVersion,
		Counters:      s.CountersSnapshot(),
	}
}

// handleHealthz serves GET /healthz: liveness plus load counters.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	body, err := json.Marshal(s.HealthSnapshot())
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// retryAfterSeconds is the worst per-class backoff — what healthz
// advertises at the top level so frontends pacing on one number stay
// conservative. Per-class honesty lives in the sched healthz block
// and on the 503s themselves: a class's rejection carries ITS
// class's backoff (sched.RetryAfterSeconds), derived from its own
// backlog and weighted worker share, never another class's backlog.
func (s *Server) retryAfterSeconds() int {
	worst := 1
	for _, c := range sched.Classes() {
		if secs := s.sched.RetryAfterSeconds(c); secs > worst {
			worst = secs
		}
	}
	return worst
}

// writeBody sends an execution endpoint's JSON body with its
// cache-disposition and spec-hash headers. The endpoint knows the
// request's scheduling class: a backpressure response (503) carries
// the Retry-After of THAT class — the honest per-class backoff,
// whether the 503 was served directly or through a coalesced flight.
func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte, cache, hash string, class sched.Class) {
	if cache != "" {
		w.Header().Set("X-Cache", cache)
	}
	if hash != "" {
		w.Header().Set("X-Spec-Hash", hash)
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfterSeconds(class)))
	}
	writeJSON(w, status, body)
}

// WriteError sends a JSON error body stamped with the request's ID, so
// a client-side error report names the exact request in the logs. Both
// tiers answer every non-2xx through it.
func WriteError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	writeJSON(w, status, errorBody(r, fmt.Sprintf(format, args...)))
}

// errorBody is the JSON error body WriteError sends for msg.
func errorBody(r *http.Request, msg string) []byte {
	body, _ := json.Marshal(errorResponse{Error: msg, RequestID: obs.RequestIDFrom(r.Context())})
	return body
}

// writeJSON sends an encoded JSON body.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
