// The frontend router: owns the public simd API and fans requests out
// to the backend shards that own them. /run and /compare forward the
// request body verbatim to the spec's owner (responses — bodies,
// X-Cache, X-Spec-Hash, Retry-After — pass through untouched, so a
// sharded cluster is byte-identical to a single process); /sweep
// expands the grid here, routes every variant to its owner, and
// interleaves the per-shard results into one completion-ordered
// NDJSON stream ending in a terminal summary row.
//
// Membership is a versioned value, not a fixed slice: the router
// holds a Topology snapshot (topology.go) mapping stable shard IDs to
// backends, swapped atomically at each admin resize (admin.go). Every
// request routes against one snapshot — RankIDs over the stable IDs —
// so X-Shard headers, failover tags and metric series name the same
// shard across grows and drains, and a mid-request resize never
// splits one request across two membership views.
//
// Failure is handled by failover, not by reporting: results are
// content-addressed and bit-reproducible, so ownership only decides
// cache placement — any live shard computes the byte-identical
// answer. When a spec's owner is dead (transport error, terminal 503)
// or its circuit is open, the router walks the spec's rendezvous rank
// order (shard.RankIDs) to the next live shard and tags the response
// X-Failover: <owner>-><served>. The failover path writes through
// nothing: the owner's store repopulates from replay when it comes
// back. Per-backend circuit breakers (breaker.go) make a dead shard
// cost one background /healthz probe per recovery interval instead of
// a dial timeout per variant. An error row appears only when EVERY
// shard has refused a variant — never a hang, never a silent
// truncation.
//
// With Options.RouterCacheBytes set, the router additionally holds a
// bounded in-memory result cache (cache.go): a result body it has
// relayed once is served to repeats directly from router memory with
// zero backend round trips, tagged X-Cache: router_hit.
//
// Work-stealing is failover's inverse: when a sweep chunk leaves one
// owner's queue deeper than its workers can drain, idle shards steal
// variants from that queue's tail, compute them locally, and the
// router writes the result body back to the owner's store (POST
// /results with X-Result-Key and X-Stolen) — ownership decides cache
// placement, never who simulates. Stealing is for MISSES only: before
// a thief simulates, the router probes the owner's store (GET
// /results?key=...) and a variant the owner already holds streams as
// an ordinary owner cache hit — warm replays stay owner-served and
// untagged even through a backlog. Sweeps are also checkpointed
// cluster-wide: every grid has a deterministic X-Sweep-ID whose
// manifest is written through to a backend store (PUT /sweep/{id} in
// the id's rank order), so a disconnected client replays the missing
// rows via GET /sweep/{id}/resume?after=N and a stored sweep
// re-analyzes via POST /sweep/{id}/analyze with zero re-simulation.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// Options configures a Router.
type Options struct {
	// Backends are the worker base URLs at boot; backend i is admitted
	// as stable shard ID i (epoch 1), so a boot-time cluster routes
	// identically to the pre-topology index scheme. Later membership
	// changes go through the admin endpoints, which assign fresh IDs.
	Backends []string
	// HTTP is the transport used for every backend call; nil selects
	// http.DefaultClient.
	HTTP *http.Client
	// SweepConcurrency bounds in-flight sweep variants per shard
	// (<= 0: probe the shard's /healthz for its worker count, falling
	// back to defaultSweepConcurrency). The backend's bounded queue
	// stays the real limiter — this only keeps the router from
	// provoking gratuitous 503 churn.
	SweepConcurrency int
	// AttemptTimeout bounds one backend call (<= 0: none). A hung
	// backend is then indistinguishable from a dead one: the attempt
	// is cut, the breaker charged, and the request fails over.
	AttemptTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's circuit (<= 0: defaultBreakerThreshold).
	BreakerThreshold int
	// BreakerInterval paces the open-circuit /healthz probes (<= 0:
	// defaultBreakerInterval).
	BreakerInterval time.Duration
	// MaxCycles caps any spec's max_cycles at validation time (<= 0:
	// only the global spec.MaxRunCycles bound applies). Should match
	// the backends' -max-cycles so the router rejects pathological
	// budgets before they cost a forward.
	MaxCycles uint64
	// MaxSweepVariants caps a sweep grid's full Cartesian product
	// (<= 0: service.DefaultMaxSweepVariants). Should match the
	// backends' -max-sweep-variants so router and workers accept
	// exactly the same grids (cmd/simd wires one flag into both).
	MaxSweepVariants int
	// RouterCacheBytes, when positive, enables the router-side result
	// cache bounded to that many encoded bytes; repeats of a result
	// the router has relayed once are answered from router memory
	// (X-Cache: router_hit) with zero backend round trips. <= 0
	// disables the cache — warm replays then resolve through the
	// owning backend's store exactly as before (cmd/simd enables the
	// cache by default via -router-cache-bytes).
	RouterCacheBytes int64
	// Supervisor, when the router fronts locally supervised backends,
	// lets the aggregated healthz report process state (running /
	// respawning / dead-after-give-up) per shard, and is what the
	// admin grow endpoint spawns new workers through.
	Supervisor *Supervisor
	// TenantHeader names the request header carrying the caller's
	// tenant for the backends' weighted-fair scheduling (empty:
	// service.DefaultTenantHeader). Must match the backends'
	// -tenant-header so the identity the router validates and forwards
	// is the one the workers queue by (cmd/simd wires one flag into
	// both).
	TenantHeader string
}

// defaultSweepConcurrency is the per-shard variant fan-out used when
// a backend's worker count cannot be probed.
const defaultSweepConcurrency = 4

// healthTimeout bounds one backend /healthz probe; liveness must not
// hang on a dead peer.
const healthTimeout = 2 * time.Second

// routerHit is the X-Cache disposition of a response served from the
// router's own result cache — distinct from the backend's "hit" so
// clients and smokes can tell the tiers apart.
const routerHit = "router_hit"

// shardState is one backend as the router sees it. id is the shard's
// stable identity: assigned at admission, never reused, and the value
// rendezvous placement, X-Shard headers, failover/steal tags and
// metric labels are all keyed by.
type shardState struct {
	id      int
	client  *service.Client
	conc    int
	breaker *breaker
	// Per-shard metric series, resolved once at admission (With takes
	// a lock; the serving path must not).
	attempts  *obs.Histogram // backend attempt latency
	failovers *obs.Counter   // requests served away from THIS owner
	retries   *obs.Counter   // saturation retry waits against this shard
	steals    *obs.Counter   // sweep variants THIS shard stole and computed
}

// view is one immutable membership snapshot: the shard states of one
// topology epoch plus the derived indexes the request paths need.
// Handlers take one view per request (or per sweep chunk) and route
// entirely against it; admin resizes install a new view, they never
// mutate an old one.
type view struct {
	epoch  int64
	shards []*shardState // membership order
	byID   map[int]*shardState
	ids    []int // stable IDs in membership order (OwnerID/RankIDs input)
}

// newView builds the derived indexes for one membership snapshot.
func newView(epoch int64, shards []*shardState) *view {
	v := &view{epoch: epoch, shards: shards, byID: make(map[int]*shardState, len(shards)), ids: make([]int, len(shards))}
	for i, sh := range shards {
		v.byID[sh.id] = sh
		v.ids[i] = sh.id
	}
	return v
}

// topology renders the view as the wire-visible Topology value.
func (v *view) topology() Topology {
	t := Topology{Epoch: v.epoch, Members: make([]Member, len(v.shards))}
	for i, sh := range v.shards {
		t.Members[i] = Member{ID: sh.id, Addr: sh.client.Base}
	}
	return t
}

// Router is the sharded frontend. Routing state is one atomic
// membership snapshot plus per-backend circuit state: every routing
// decision derives from the request's spec hash and the stable IDs in
// the current view, so any number of router replicas with the same
// topology agree on ownership and failover order (breaker state may
// briefly differ per replica — it converges via the shared probes).
type Router struct {
	mux              *http.ServeMux
	scenariosBody    []byte
	scenarioByName   map[string]spec.Spec
	attemptTimeout   time.Duration
	maxCycles        uint64
	maxSweepVariants int
	sweepConc        int
	tenantHeader     string
	breakerThreshold int
	breakerInterval  time.Duration
	httpClient       *http.Client
	sup              *Supervisor
	cache            *resultCache
	stop             chan struct{}
	stopOnce         sync.Once
	since            time.Time

	// topoMu guards the current membership snapshot and the stable-ID
	// allocator. Request paths take the read lock once per request to
	// snapshot the view; only admin resizes take the write lock.
	topoMu sync.RWMutex
	topo   *view
	nextID int

	// adminMu serializes membership changes: one grow or drain at a
	// time, so two concurrent drains cannot both believe the other's
	// shard is still a migration target.
	adminMu sync.Mutex

	// reg holds the router's own metric families (metrics.go); the
	// aggregated /metrics merges backend scrapes into it per request.
	reg          *obs.Registry
	httpMetrics  *obs.HTTPMetrics
	sweepRows    *obs.Counter
	sweepResumes *obs.Counter
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	migrated     *obs.CounterVec

	// Per-shard metric vecs, kept so shards admitted at runtime bind
	// their own series under their stable ID label (bindShardMetrics).
	attemptsVec  *obs.HistogramVec
	failoversVec *obs.CounterVec
	retriesVec   *obs.CounterVec
	stealsVec    *obs.CounterVec
	opensVec     *obs.CounterVec
	stateVec     *obs.GaugeVec
	restartsVec  *obs.CounterVec
}

// New builds a router over the given backends. Construction never
// requires the backends to be up — a cluster must boot in any order —
// but live backends are probed once for their worker counts to size
// the sweep fan-out.
func New(opt Options) (*Router, error) {
	if len(opt.Backends) == 0 {
		return nil, errors.New("shard: no backends")
	}
	rt := &Router{
		attemptTimeout:   opt.AttemptTimeout,
		maxCycles:        opt.MaxCycles,
		maxSweepVariants: opt.MaxSweepVariants,
		sweepConc:        opt.SweepConcurrency,
		tenantHeader:     opt.TenantHeader,
		breakerThreshold: opt.BreakerThreshold,
		breakerInterval:  opt.BreakerInterval,
		httpClient:       opt.HTTP,
		sup:              opt.Supervisor,
		stop:             make(chan struct{}),
		since:            time.Now(),
	}
	if rt.maxSweepVariants <= 0 {
		rt.maxSweepVariants = service.DefaultMaxSweepVariants
	}
	if rt.tenantHeader == "" {
		rt.tenantHeader = service.DefaultTenantHeader
	}
	if opt.RouterCacheBytes > 0 {
		rt.cache = newResultCache(opt.RouterCacheBytes)
	}
	rt.scenariosBody, rt.scenarioByName = service.ScenarioLibrary()
	shards := make([]*shardState, 0, len(opt.Backends))
	for i, base := range opt.Backends {
		sh, err := rt.newShardState(i, base)
		if err != nil {
			return nil, err
		}
		shards = append(shards, sh)
	}
	rt.probeConcurrency(shards)
	rt.topo = newView(1, shards)
	rt.nextID = len(shards)
	rt.initMetrics()
	rt.mux = http.NewServeMux()
	// Same middleware as the worker: every endpoint is counted, timed
	// and carries the request-ID contract — the router mints the ID
	// the backend hop then inherits through the request context.
	handle := func(pattern string, h http.HandlerFunc) {
		rt.mux.Handle(pattern, rt.httpMetrics.Wrap(pattern, h))
	}
	handle("/run", func(w http.ResponseWriter, r *http.Request) { rt.handleProxy(w, r, "/run") })
	handle("/compare", func(w http.ResponseWriter, r *http.Request) { rt.handleProxy(w, r, "/compare") })
	handle("/sweep", rt.handleSweep)
	handle("/sweep/analyze", rt.handleAnalyze)
	handle("/sweep/{id}", rt.handleSweepStatus)
	handle("/sweep/{id}/resume", rt.handleSweepResume)
	handle("/sweep/{id}/analyze", rt.handleSweepStoredAnalyze)
	handle("/admin/shards", rt.handleAdminShards)
	handle("/admin/shards/{id}/drain", rt.handleAdminDrain)
	handle("/scenarios", rt.handleScenarios)
	handle("/healthz", rt.handleHealthz)
	handle("/metrics", rt.handleMetrics)
	handle("/version", service.VersionHandler(rt.since).ServeHTTP)
	return rt, nil
}

// newShardState validates one backend URL and builds its state under
// the given stable ID (metric series bind later, at admission).
func (rt *Router) newShardState(id int, base string) (*shardState, error) {
	base = strings.TrimSuffix(strings.TrimSpace(base), "/")
	if base == "" {
		return nil, fmt.Errorf("shard: backend %d has an empty URL", id)
	}
	// Reject malformed and scheme-less URLs at construction: a
	// "localhost:8080" (missing http://) parses as scheme
	// "localhost" and would boot cleanly only to 502 every request
	// with an error blaming the network instead of the flag.
	u, err := url.Parse(base)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("shard: backend %d URL %q must be http(s)://host[:port]", id, base)
	}
	client := &service.Client{Base: base, HTTP: rt.httpClient}
	return &shardState{
		id:     id,
		client: client,
		conc:   rt.sweepConc,
		breaker: newBreaker(rt.breakerThreshold, rt.breakerInterval, func(ctx context.Context) error {
			_, err := client.FetchHealth(ctx)
			return err
		}, rt.stop),
	}, nil
}

// probeConcurrency resolves each shard's sweep fan-out: the
// configured value if set, otherwise sized per class from the
// backend's live /healthz (falling back to defaultSweepConcurrency
// when unreachable). Sweep variants are batch-class, and under the
// weighted-fair scheduler a batch call that finds every worker busy
// with interactive work QUEUES (up to the batch cap) instead of
// burning a 503 — so the router keeps one extra worker's worth of
// variants in the shard's batch queue (worker count plus
// min(batch queue capacity, worker count)): the queue stays primed
// through interactive bursts and drains at full rate the moment the
// workers free up, with no gratuitous 503 churn. The same number is
// the work-stealing threshold (collectChunk), so a backlog within
// the shard's own primed pipeline is left alone and stealing starts
// only past what the shard can actually hold in its batch share.
// Backends without a sched block report no batch cap and size to
// the worker count as before.
func (rt *Router) probeConcurrency(shards []*shardState) {
	var wg sync.WaitGroup
	for _, sh := range shards {
		if sh.conc > 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shardState) {
			defer wg.Done()
			sh.conc = defaultSweepConcurrency
			ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
			defer cancel()
			h, err := sh.client.FetchHealth(ctx)
			if err != nil || h.Workers <= 0 {
				return
			}
			sh.conc = h.Workers
			if h.Sched == nil {
				return
			}
			for _, cs := range h.Sched.Classes {
				if cs.Class == sched.Batch.String() && cs.QueueCap > 0 {
					sh.conc = h.Workers + min(cs.QueueCap, h.Workers)
				}
			}
		}(sh)
	}
	wg.Wait()
}

// view snapshots the current membership. The returned view is
// immutable; the caller routes its whole request (or sweep chunk)
// against it.
func (rt *Router) view() *view {
	rt.topoMu.RLock()
	defer rt.topoMu.RUnlock()
	return rt.topo
}

// allocIDs reserves n fresh stable shard IDs. IDs are never reused
// within a router's lifetime, so a retired shard's metric series and
// log lines can never be confused with a later arrival's.
func (rt *Router) allocIDs(n int) []int {
	rt.topoMu.Lock()
	defer rt.topoMu.Unlock()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = rt.nextID
		rt.nextID++
	}
	return ids
}

// admit installs a new view containing the current members plus shs,
// bumping the epoch. Returns the new topology.
func (rt *Router) admit(shs []*shardState) Topology {
	rt.topoMu.Lock()
	defer rt.topoMu.Unlock()
	all := make([]*shardState, 0, len(rt.topo.shards)+len(shs))
	all = append(all, rt.topo.shards...)
	all = append(all, shs...)
	rt.topo = newView(rt.topo.epoch+1, all)
	return rt.topo.topology()
}

// remove installs a new view without the given shard ID, bumping the
// epoch. Returns the new topology.
func (rt *Router) remove(id int) Topology {
	rt.topoMu.Lock()
	defer rt.topoMu.Unlock()
	kept := make([]*shardState, 0, len(rt.topo.shards))
	for _, sh := range rt.topo.shards {
		if sh.id != id {
			kept = append(kept, sh)
		}
	}
	rt.topo = newView(rt.topo.epoch+1, kept)
	return rt.topo.topology()
}

// Topology returns the current membership snapshot — stable IDs,
// backend addresses and the epoch number.
func (rt *Router) Topology() Topology { return rt.view().topology() }

// Shards returns the current backend count.
func (rt *Router) Shards() int { return len(rt.view().shards) }

// Handler returns the HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the router's background work (open-circuit probers).
// In-flight requests are unaffected; Close exists so embedding tests
// and servers can shut down without leaking probe goroutines against
// permanently dead backends.
func (rt *Router) Close() { rt.stopOnce.Do(func() { close(rt.stop) }) }

// maxBodyBytes mirrors the backend's request-body bound.
const maxBodyBytes = 1 << 20

// writeError sends a JSON error stamped with the request's ID.
func writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	body, _ := json.Marshal(struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id,omitempty"`
	}{Error: fmt.Sprintf(format, args...), RequestID: obs.RequestIDFrom(r.Context())})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// resolveSpec decodes a /run-shaped body far enough to route it: the
// request (for the model selector), the spec and its content hash.
// Validation beyond the routing needs (and the router's own
// max_cycles cap) stays on the backend — the router forwards the
// original bytes, so the backend's strict decode sees exactly what
// the client sent.
func (rt *Router) resolveSpec(body []byte) (service.RunRequest, spec.Spec, string, error) {
	var req service.RunRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, spec.Spec{}, "", fmt.Errorf("parsing request: %w", err)
	}
	var sp spec.Spec
	switch {
	case req.Spec != nil && req.Scenario != "":
		return req, sp, "", errors.New("request has both spec and scenario; send one")
	case req.Spec != nil:
		sp = *req.Spec
	case req.Scenario != "":
		found, ok := rt.scenarioByName[req.Scenario]
		if !ok {
			return req, sp, "", fmt.Errorf("unknown scenario %q", req.Scenario)
		}
		sp = found
	default:
		return req, sp, "", errors.New("request needs a spec or a scenario name")
	}
	hash, err := sp.Hash()
	return req, sp, hash, err
}

// checkCycleCap enforces the router's configured max_cycles cap — the
// same bound the backends enforce via -max-cycles, applied here so a
// pathological budget is rejected before it costs a forward.
func (rt *Router) checkCycleCap(sp spec.Spec) error {
	if rt.maxCycles > 0 && sp.MaxCycles > rt.maxCycles {
		return fmt.Errorf("spec %s: max_cycles %d exceeds the cluster cap %d", sp.Name, sp.MaxCycles, rt.maxCycles)
	}
	return nil
}

// post sends one backend call, bounded by the per-attempt timeout
// when configured. The attempt context is derived from the caller's,
// so a vanished client still cancels the forward immediately. extra
// (may be nil) carries per-request scheduling identity — the
// tenant/class headers the backend's weighted-fair scheduler queues
// by.
func (rt *Router) post(ctx context.Context, sh *shardState, path string, body []byte, extra http.Header) (int, http.Header, []byte, error) {
	if rt.attemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.attemptTimeout)
		defer cancel()
	}
	hdr := http.Header{"Content-Type": {"application/json"}}
	for name, vals := range extra {
		hdr[name] = vals
	}
	start := time.Now()
	status, respHdr, respBody, err := sh.client.Do(ctx, http.MethodPost, path, body, hdr)
	sh.attempts.Observe(time.Since(start).Seconds())
	return status, respHdr, respBody, err
}

// identHeader extracts the scheduling identity a frontend request
// carries — the tenant header (Options.TenantHeader) and X-Class —
// as the header block every backend hop for that request forwards.
// defClass is stamped when the client named no class ("" leaves the
// choice to the backend endpoint's own default); the sweep fan-out
// passes "batch" so a grid's variants are explicitly batch-class on
// every /run they become, even through failover and work-stealing.
// Validation happens here, with the scheduler's own rules, so a bad
// identity is one clean 400 at the front door rather than a
// per-variant error row storm.
func (rt *Router) identHeader(r *http.Request, defClass string) (http.Header, error) {
	hdr := http.Header{}
	if tenant := r.Header.Get(rt.tenantHeader); tenant != "" {
		if !sched.ValidTenant(tenant) {
			return nil, fmt.Errorf("invalid tenant %q in %s (want 1-%d chars of [A-Za-z0-9._-])", tenant, rt.tenantHeader, sched.MaxTenantLen)
		}
		hdr.Set(rt.tenantHeader, tenant)
	}
	class := r.Header.Get(service.ClassHeader)
	if class != "" {
		if _, ok := sched.ParseClass(class); !ok {
			return nil, fmt.Errorf("unknown scheduling class %q in %s (want interactive or batch)", class, service.ClassHeader)
		}
	} else {
		class = defClass
	}
	if class != "" {
		hdr.Set(service.ClassHeader, class)
	}
	return hdr, nil
}

// resultKeyFor maps a variant's endpoint and model selector onto the
// content-addressed store key its result lives under — the shared
// vocabulary of the backend store, the owner probe, the write-back
// and the router cache. Empty when the hash is malformed.
func resultKeyFor(path, runModel, hash string) string {
	model := runModel
	if path == "/compare" {
		model = "compare"
	}
	key, err := service.ResultKey(model, hash)
	if err != nil {
		return ""
	}
	return key
}

// cacheLookup probes the router result cache, counting the hit or
// miss. Always a miss when the cache is disabled or the key is
// unusable (then uncounted: no probe happened).
func (rt *Router) cacheLookup(key string) ([]byte, bool) {
	if rt.cache == nil || key == "" {
		return nil, false
	}
	if body, ok := rt.cache.get(key); ok {
		rt.cacheHits.Inc()
		return body, true
	}
	rt.cacheMisses.Inc()
	return nil, false
}

// cacheFill stores a relayed 200 body in the router cache.
func (rt *Router) cacheFill(key string, body []byte) {
	if rt.cache != nil && key != "" {
		rt.cache.put(key, body)
	}
}

// proxyHeaders is the response-header allowlist forwarded from a
// backend: the cache/replay contract, backpressure, and the per-stage
// timing breakdown.
var proxyHeaders = []string{"Content-Type", "X-Cache", "X-Spec-Hash", "Retry-After", "X-Terminal", "X-Timing"}

// handleProxy serves POST /run and /compare: hash, probe the router
// cache, then walk the spec's rendezvous rank order starting at its
// owner, forward verbatim to the first live shard, relay the
// response. The router adds X-Shard (the stable ID of the shard that
// served — the current owner for router-cache hits, which are
// placement-neutral) and, when the server isn't the owner, X-Failover
// ("owner->served") so operators can see both placement and
// degradation. 502 only when every shard refused.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request, path string) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	req, sp, hash, err := rt.resolveSpec(body)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if err := rt.checkCycleCap(sp); err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	schedHdr, err := rt.identHeader(r, "")
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	vw := rt.view()
	ranks := RankIDs(hash, vw.ids)
	owner := ranks[0]
	key := resultKeyFor(path, req.Model, hash)
	if cached, ok := rt.cacheLookup(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", routerHit)
		w.Header().Set("X-Spec-Hash", hash)
		w.Header().Set("X-Shard", strconv.Itoa(owner))
		w.WriteHeader(http.StatusOK)
		w.Write(cached)
		return
	}
	lastErr := ""
	for _, id := range ranks {
		sh := vw.byID[id]
		if !sh.breaker.allow() {
			lastErr = fmt.Sprintf("shard %d (%s): circuit open", id, sh.client.Base)
			continue
		}
		status, hdr, respBody, err := rt.post(r.Context(), sh, path, body, schedHdr)
		if err != nil {
			if r.Context().Err() != nil {
				return // client gone; nothing to say and no one to say it to
			}
			sh.breaker.failure()
			lastErr = fmt.Sprintf("shard %d (%s) unreachable: %v", id, sh.client.Base, err)
			continue
		}
		if status == http.StatusServiceUnavailable && hdr.Get("X-Terminal") != "" {
			// Shutting down — as dead as a failed dial for routing
			// purposes; the next-ranked shard serves.
			sh.breaker.failure()
			lastErr = fmt.Sprintf("shard %d (%s) shutting down", id, sh.client.Base)
			continue
		}
		sh.breaker.success()
		for _, name := range proxyHeaders {
			if v := hdr.Get(name); v != "" {
				w.Header().Set(name, v)
			}
		}
		w.Header().Set("X-Shard", strconv.Itoa(id))
		if id != owner {
			w.Header().Set("X-Failover", fmt.Sprintf("%d->%d", owner, id))
			vw.byID[owner].failovers.Inc()
			log.Printf("failover endpoint=%s owner=%d served=%d rid=%s reason=%q",
				path, owner, id, obs.RequestIDFrom(r.Context()), lastErr)
		}
		if status == http.StatusOK {
			rt.cacheFill(key, respBody)
		}
		w.WriteHeader(status)
		w.Write(respBody)
		return
	}
	writeError(w, r, http.StatusBadGateway, "no live shard for spec (owner %d): %s", owner, lastErr)
}

// handleScenarios serves GET /scenarios — the same library every
// backend derives from the same spec data.
func (rt *Router) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(rt.scenariosBody)
}

// ShardHealth is one backend's slot in the aggregated /healthz.
type ShardHealth struct {
	// ID is the shard's stable identity — the value X-Shard headers,
	// failover tags and metric labels carry. Index repeats it for
	// consumers written against the positional-era schema.
	ID    int    `json:"id"`
	Index int    `json:"index"`
	Addr  string `json:"addr"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Breaker is the router's circuit state for this backend:
	// "closed", "open" or "half-open".
	Breaker string `json:"breaker"`
	// Proc is the supervisor's process view (supervised clusters
	// only): running / respawning / dead, plus the respawn count.
	Proc *ProcStatus `json:"proc,omitempty"`
	// Restarts is Proc's respawn count lifted to the top level so
	// monitoring can read "this worker's counters reset N times"
	// without probing for the supervisor-only Proc block. Always 0 in
	// pre-spawned (unsupervised) clusters.
	Restarts int `json:"restarts"`
	// Health is the backend's own /healthz body, absent when the
	// shard is unreachable.
	Health *service.Health `json:"health,omitempty"`
}

// ClusterHealth is the router's GET /healthz body: per-shard liveness
// and occupancy plus cluster totals. OK is the conjunction — a
// cluster with a dead shard is degraded (its keyspace is served by
// failover, without its warm store), and monitoring must see that
// even while every request still succeeds.
type ClusterHealth struct {
	OK bool `json:"ok"`
	// Epoch is the current topology version; it increments on every
	// admin grow or drain, so two healthz reads can be ordered.
	Epoch int64 `json:"epoch"`
	// Topology is the current membership: stable shard IDs bound to
	// backend addresses, in admission order.
	Topology []Member      `json:"topology"`
	Shards   []ShardHealth `json:"shards"`
	// Workers/QueueCap/Queued/InFlight are summed over live shards.
	Workers  int `json:"workers"`
	QueueCap int `json:"queue_capacity"`
	Queued   int `json:"queued"`
	InFlight int `json:"in_flight"`
	// RetryAfter is the worst (largest) live-shard backoff — the
	// honest cluster-wide pacing hint, since a request may land on the
	// busiest shard.
	RetryAfter int `json:"retry_after"`
	// Sched aggregates the shards' weighted-fair scheduler state per
	// class: queue capacity, queued, in-flight, rejected and
	// dispatched summed over live shards; retry_after is the worst
	// (largest) live shard's per-class backoff. Class names match the
	// simd_sched_* metric labels. Absent when no live shard reported a
	// sched block.
	Sched []sched.ClassStatus `json:"sched,omitempty"`
	// SchedTenants aggregates per-tenant queue depth across live
	// shards, ordered by class then tenant name — the cluster-wide
	// twin of a worker's sched.tenants healthz block, keyed like the
	// simd_sched_queue_depth{tenant,class} metric.
	SchedTenants []sched.TenantStatus `json:"sched_tenants,omitempty"`
	// Restarts is the total supervisor respawns across shards. A
	// nonzero value warns that the summed Counters below undercount:
	// a respawned worker restarts its counters (and loses its memory
	// cache) even though its disk store replays.
	Restarts int `json:"restarts"`
	// Version describes the router build itself (the shards report
	// their own go_version in their Health blocks).
	Version *service.VersionInfo `json:"version,omitempty"`
	service.Counters
}

// FetchClusterHealth probes every backend concurrently and aggregates.
func (rt *Router) FetchClusterHealth(ctx context.Context) ClusterHealth {
	vw := rt.view()
	top := vw.topology()
	out := ClusterHealth{OK: true, Epoch: top.Epoch, Topology: top.Members, Shards: make([]ShardHealth, len(vw.shards))}
	procByID := make(map[int]ProcStatus)
	if rt.sup != nil {
		for _, p := range rt.sup.Status() {
			procByID[p.Index] = p
		}
	}
	var wg sync.WaitGroup
	for i, sh := range vw.shards {
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			probe, cancel := context.WithTimeout(ctx, healthTimeout)
			defer cancel()
			h, err := sh.client.FetchHealth(probe)
			if err != nil {
				out.Shards[i] = ShardHealth{ID: sh.id, Index: sh.id, Addr: sh.client.Base, Error: err.Error()}
				return
			}
			out.Shards[i] = ShardHealth{ID: sh.id, Index: sh.id, Addr: sh.client.Base, OK: h.OK, Health: &h}
		}(i, sh)
	}
	wg.Wait()
	for i, sh := range vw.shards {
		out.Shards[i].Breaker = sh.breaker.State()
		if p, ok := procByID[sh.id]; ok {
			out.Shards[i].Proc = &p
			out.Shards[i].Restarts = p.Respawns
			out.Restarts += p.Respawns
		}
	}
	v := service.ReadVersion(rt.since)
	out.Version = &v
	classAgg := make(map[string]*sched.ClassStatus)
	var classOrder []string
	tenantAgg := make(map[string]*sched.TenantStatus)
	for _, s := range out.Shards {
		if !s.OK || s.Health == nil {
			out.OK = false
			continue
		}
		h := s.Health
		out.Workers += h.Workers
		out.QueueCap += h.QueueCap
		out.Queued += h.Queued
		out.InFlight += h.InFlight
		if h.RetryAfter > out.RetryAfter {
			out.RetryAfter = h.RetryAfter
		}
		out.Jobs += h.Jobs
		out.CacheHits += h.CacheHits
		out.Coalesced += h.Coalesced
		out.Rejected += h.Rejected
		out.StoreHits += h.StoreHits
		out.Timeouts += h.Timeouts
		if h.Sched == nil {
			continue
		}
		for _, cs := range h.Sched.Classes {
			agg, ok := classAgg[cs.Class]
			if !ok {
				c := cs
				classAgg[cs.Class] = &c
				classOrder = append(classOrder, cs.Class)
				continue
			}
			agg.QueueCap += cs.QueueCap
			agg.Queued += cs.Queued
			agg.InFlight += cs.InFlight
			agg.Rejected += cs.Rejected
			agg.Dispatched += cs.Dispatched
			if cs.RetryAfter > agg.RetryAfter {
				agg.RetryAfter = cs.RetryAfter
			}
		}
		for _, ts := range h.Sched.Tenants {
			// Key by class INDEX so the merged order below is class
			// order then tenant name — exactly a single worker's own
			// healthz block — not the class names' lexicographic order.
			idx, _ := sched.ParseClass(ts.Class)
			k := fmt.Sprintf("%d\x00%s", idx, ts.Tenant)
			if agg, ok := tenantAgg[k]; ok {
				agg.Queued += ts.Queued
			} else {
				t := ts
				tenantAgg[k] = &t
			}
		}
	}
	// Workers report classes in fixed scheduler order, so first-seen
	// order IS that order; tenants sort by class then name, matching a
	// single worker's own healthz block.
	for _, name := range classOrder {
		out.Sched = append(out.Sched, *classAgg[name])
	}
	tenantKeys := make([]string, 0, len(tenantAgg))
	for k := range tenantAgg {
		tenantKeys = append(tenantKeys, k)
	}
	sort.Strings(tenantKeys)
	for _, k := range tenantKeys {
		out.SchedTenants = append(out.SchedTenants, *tenantAgg[k])
	}
	return out
}

// handleHealthz serves the aggregated GET /healthz. The status code
// stays 200 even when degraded — the body's ok field carries the
// verdict, and a load balancer that should stop routing to a
// *router* (rather than a shard) has the per-shard detail to decide.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	body, err := json.Marshal(rt.FetchClusterHealth(r.Context()))
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// Row is one NDJSON data line of the router's /sweep stream: the
// backend's row plus the stable ID of the shard that served the
// variant. Shard is always present (0 is a real shard; -1 marks a
// grid-level build error no shard served), which is why this is a
// distinct wire type rather than an omitempty field on the backend
// row. Failover is set ("owner->served") when the serving shard is
// not the owner — the stream-level twin of the X-Failover header.
// Stolen ("owner->thief") marks a work-stolen row: an idle shard
// computed it past the owner's deep queue and the result was written
// back to the owner's store. A row served from the router's own
// result cache carries Cache "router_hit" with Shard naming the
// current owner (placement, not work).
type Row struct {
	service.SweepRow
	Shard    int    `json:"shard"`
	Failover string `json:"failover,omitempty"`
	Stolen   string `json:"stolen,omitempty"`
}

// sweepEndpoint maps the request's model selector onto the per-variant
// backend endpoint, mirroring the backend's own model switch.
func sweepEndpoint(model string) (path, runModel string, err error) {
	switch model {
	case "", "tl", "tlm", "rtl":
		return "/run", model, nil
	case "compare":
		return "/compare", "", nil
	}
	return "", "", fmt.Errorf("unknown model %q (want tl, rtl or compare)", model)
}

// sweepChunkSize and manifestCheckpointRows mirror the backend's
// values (internal/service): the two tiers buffer the same number of
// expanded variants and checkpoint at the same row cadence, so their
// streams degrade identically under the same failures.
const (
	sweepChunkSize         = 2048
	manifestCheckpointRows = 256
)

// handleSweep serves POST /sweep: walk the grid in bounded chunks,
// route each variant to its owning shard as an individual /run (or
// /compare) call — work-stolen when the owner's queue runs deep — and
// merge the results into one completion-ordered stream. Per-variant
// forwarding — rather than forwarding sub-grids — is what lets every
// variant share the backend's full cache/coalescing path with direct
// requests, and what makes failover per-variant: a dead shard's
// keyspace is simply computed by the next-ranked live shard.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req service.SweepRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	schedHdr, err := rt.identHeader(r, sched.Batch.String())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	rt.streamSweep(w, r, req, -1, schedHdr)
}

// streamSweep validates the grid and streams its NDJSON rows — the
// shared engine of POST /sweep (after = -1: the whole grid) and GET
// /sweep/{id}/resume (after = the client's high-water mark). The
// router mirrors the backend's checkpointing: the sweep's manifest is
// written through to a backend store as rows complete, so a sweep's
// identity and progress survive the death of the client, the router
// AND any single shard. schedHdr is the caller's scheduling identity
// (tenant + class, normally batch) stamped on every per-variant
// backend call.
func (rt *Router) streamSweep(w http.ResponseWriter, r *http.Request, req service.SweepRequest, after int, schedHdr http.Header) {
	grid, total, err := service.ResolveSweepGrid(req, rt.scenarioByName, rt.maxSweepVariants)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if err := service.CheckGridCycleCaps(grid, rt.checkCycleCap); err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	path, runModel, err := sweepEndpoint(req.Model)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := service.SweepID(req, rt.scenarioByName)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	man := rt.loadOrNewManifest(r.Context(), id, req, total)

	// The stream is committed: from here every failure is a row, and
	// completion is the terminal summary line.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Variants", strconv.Itoa(total))
	w.Header().Set(service.SweepIDHeader, id)
	w.WriteHeader(http.StatusOK)
	out := service.NewRowWriter(w)
	out.Flush() // the headers, before the first row exists

	emitted, errored, sinceCheckpoint := 0, 0, 0
	emit := func(row Row) {
		out.Write(row)
		rt.sweepRows.Inc()
		emitted++
		if row.Error != "" {
			errored++
			man.Failed.Set(row.Index)
		} else {
			man.Done.Set(row.Index)
			man.Failed.Clear(row.Index)
		}
		if sinceCheckpoint++; sinceCheckpoint >= manifestCheckpointRows {
			sinceCheckpoint = 0
			out.Flush() // about to wait on a backend: written rows go first
			rt.checkpointManifest(man)
		}
	}
	distinct, complete := rt.collectGrid(r.Context(), grid, after, path, runModel, schedHdr, emit, out.Flush)
	if complete {
		out.Write(service.SweepSummary{Done: true, Rows: emitted, Errors: errored})
		// A completed walk knows the deduplicated variant count even
		// when it only EMITTED a suffix — the walk itself always
		// enumerates from index 0 — so a resume that reaches the end
		// can mark the sweep complete just like the initial stream.
		man.Variants = distinct
	}
	out.Flush()
	// The final checkpoint runs even when the client vanished: the
	// progress made before the disconnect is exactly what its resume
	// wants to skip.
	rt.checkpointManifest(man)
}

// collectGrid resolves the grid in bounded, work-stolen chunks while
// the grid engine expands the next chunk in the background
// (sweep.WalkChunks) — the router twin of the backend's collectGrid:
// same chunk size, same skip-at-or-below-after replay semantics, same
// build-errors-become-rows rule, same idle-means-flush rule. Each
// chunk routes against a fresh topology snapshot, so a sweep spanning
// an admin resize starts using the new membership at the next chunk
// boundary. Returns the deduplicated variant count of the FULL walk
// (valid only when complete) and whether the walk finished before ctx
// ended.
func (rt *Router) collectGrid(ctx context.Context, grid sweep.Grid, after int, path, runModel string, schedHdr http.Header, emit func(Row), idle func()) (distinct int, complete bool) {
	distinct, err := grid.WalkChunks(ctx, after, sweepChunkSize, func(c sweep.Chunk) error {
		for _, f := range c.Failed {
			emit(Row{SweepRow: service.SweepRow{Index: f.Variant.Index, Name: f.Variant.Spec.Name, Params: f.Variant.Params, Error: f.Err.Error()}, Shard: -1})
		}
		if len(c.Variants) > 0 && !rt.collectChunk(ctx, rt.view(), c.Variants, path, runModel, schedHdr, emit, idle) {
			return context.Canceled
		}
		idle()
		return nil
	})
	return distinct, err == nil
}

// collectChunk resolves one chunk of variants across the cluster and
// invokes emit — always from this goroutine — once per variant in
// completion order. The whole chunk routes against one membership
// view.
//
// The fan-out is a work-stealing scheduler over per-owner queues:
// EVERY shard gets workers — including shards that own nothing in
// this chunk — and a worker drains its own shard's queue from the
// head first. A worker whose queue is empty steals from the tail of
// the DEEPEST victim queue, but only while that queue holds more
// work than its shard has concurrent slots: a backlog the owner is
// about to clear anyway is left alone (ownership still decides cache
// placement), while a skewed chunk stops being wall-clock-bounded by
// its hottest shard. The two ends never contend for the same variant.
func (rt *Router) collectChunk(ctx context.Context, vw *view, variants []sweep.Variant, path, runModel string, schedHdr http.Header, emit func(Row), idle func()) bool {
	pos := make(map[int]int, len(vw.shards))
	for i, sh := range vw.shards {
		pos[sh.id] = i
	}
	queues := make([][]sweep.Variant, len(vw.shards))
	for _, v := range variants {
		owner := pos[OwnerID(v.Hash, vw.ids)]
		queues[owner] = append(queues[owner], v)
	}
	var mu sync.Mutex
	next := func(self int) (sweep.Variant, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if q := queues[self]; len(q) > 0 {
			queues[self] = q[1:]
			return q[0], self, true
		}
		victim := -1
		for j := range queues {
			if j == self || len(queues[j]) <= vw.shards[j].conc {
				continue
			}
			if victim < 0 || len(queues[j]) > len(queues[victim]) {
				victim = j
			}
		}
		if victim < 0 {
			return sweep.Variant{}, -1, false
		}
		q := queues[victim]
		queues[victim] = q[:len(q)-1]
		return q[len(q)-1], victim, true
	}

	var wg sync.WaitGroup
	workersN := 0
	for _, sh := range vw.shards {
		workersN += min(sh.conc, len(variants))
	}
	// One slot per worker: a finished row never blocks its worker while
	// the previous one is being written, and len(rows) tells the emit
	// loop whether another row is ready right now.
	rows := make(chan Row, workersN)
	for i, sh := range vw.shards {
		workers := min(sh.conc, len(variants))
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				for ctx.Err() == nil {
					v, ownerPos, ok := next(self)
					if !ok {
						return // chunk drained (for this worker)
					}
					var row Row
					var alive bool
					if ownerPos == self {
						row, alive = rt.resolveVariant(ctx, vw, v, path, runModel, schedHdr)
					} else {
						row, alive = rt.resolveStolen(ctx, vw, v, vw.shards[ownerPos].id, vw.shards[self].id, path, runModel, schedHdr)
					}
					if !alive {
						return // client gone
					}
					select {
					case rows <- row:
					case <-ctx.Done():
						return
					}
				}
			}(i)
		}
	}
	// Close the merged stream once every worker is done, so the emit
	// loop below can range to completion even if workers bail early on
	// a cancelled context.
	go func() {
		wg.Wait()
		close(rows)
	}()

	for {
		if len(rows) == 0 {
			idle() // about to wait on a backend
		}
		row, ok := <-rows
		if !ok {
			return ctx.Err() == nil
		}
		emit(row)
	}
}

// handleAnalyze serves POST /sweep/analyze: walk the grid exactly
// like /sweep and aggregate ROUTER-side into the same analysis
// document a single process produces — byte-identical for identical
// results, because both ends run the identical fold
// (service.AnalyzeInput + agg.Analyze). Failover keeps the document
// complete across single-shard loss; only a variant no shard could
// serve surfaces as explicit incomplete metadata (failed list,
// analyzed < variants) — never a silently-shrunk frontier that reads
// like the whole design space.
func (rt *Router) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req service.AnalyzeRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	schedHdr, err := rt.identHeader(r, sched.Batch.String())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	rt.analyzeGrid(w, r, req, schedHdr)
}

// analyzeGrid runs the decoded analysis request — the shared engine
// of POST /sweep/analyze (grid inlined) and POST /sweep/{id}/analyze
// (grid from the stored manifest). Rows fold into metric inputs as
// they complete, so a 100k-variant analysis holds per-variant
// metrics, never the full result bodies.
func (rt *Router) analyzeGrid(w http.ResponseWriter, r *http.Request, req service.AnalyzeRequest, schedHdr http.Header) {
	grid, total, err := service.ResolveSweepGrid(req.SweepRequest, rt.scenarioByName, rt.maxSweepVariants)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if err := service.CheckGridCycleCaps(grid, rt.checkCycleCap); err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	path, runModel, err := sweepEndpoint(req.Model)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	compare := path == "/compare"
	// Reject a bad analysis selector before any backend cost, with the
	// backend's own validation — router and worker accept exactly the
	// same analyses.
	if err := req.Request.Validate(compare); err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := service.SweepID(req.SweepRequest, rt.scenarioByName)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}

	inputs := make([]agg.Input, 0, min(total, sweepChunkSize))
	distinct, complete := rt.collectGrid(r.Context(), grid, -1, path, runModel, schedHdr, func(row Row) {
		inputs = append(inputs, service.AnalyzeInput(compare, row.SweepRow))
	}, func() {})
	if !complete {
		return // client gone
	}
	doc, err := agg.Analyze(req.Request, compare, service.AggAxes(req.Axes), distinct, inputs)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := json.Marshal(doc)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Sweep-Variants", strconv.Itoa(total))
	w.Header().Set(service.SweepIDHeader, id)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// variantRequest renders the service.RunRequest that runs one variant:
// the grid walk's canonical spec bytes, forwarded as they are instead
// of encoding the spec a second time. runModel is one of the plain
// selectors sweepEndpoint lets through.
func variantRequest(v sweep.Variant, runModel string) []byte {
	body := make([]byte, 0, len(v.Canonical)+len(runModel)+len(`{"spec":,"model":""}`))
	body = append(append(body, `{"spec":`...), v.Canonical...)
	if runModel != "" {
		body = append(append(append(body, `,"model":"`...), runModel...), '"')
	}
	return append(body, '}')
}

// resolveVariant runs one variant against the cluster: the router
// cache first, then the shards in the variant's rendezvous rank
// order, starting at its owner. On each live shard, saturation 503s
// are retried with the backend's own Retry-After as the backoff — the
// honest signal: a deep backlog advertises a long wait, and the
// router paces itself accordingly instead of hammering. A dead shard
// (circuit open, transport error, terminal 503) costs one step down
// the rank order; a served-by-non-owner row carries the Failover tag.
// A deterministic non-503 error (bad spec: 400/500) is NOT failed
// over — every shard would answer identically. The error row exists
// only when every shard refused. ok=false means the client's context
// ended.
func (rt *Router) resolveVariant(ctx context.Context, vw *view, v sweep.Variant, path, runModel string, schedHdr http.Header) (Row, bool) {
	ranks := RankIDs(v.Hash, vw.ids)
	owner := ranks[0]
	row := Row{SweepRow: service.SweepRow{
		Index:  v.Index,
		Name:   v.Spec.Name,
		Hash:   v.Hash,
		Params: v.Params,
	}, Shard: owner}
	key := resultKeyFor(path, runModel, v.Hash)
	if cached, ok := rt.cacheLookup(key); ok {
		row.Cache = routerHit
		row.Result = json.RawMessage(cached)
		return row, true
	}
	reqBody := variantRequest(v, runModel)
	lastErr := ""
	for _, id := range ranks {
		if ctx.Err() != nil {
			return Row{}, false
		}
		sh := vw.byID[id]
		if !sh.breaker.allow() {
			lastErr = fmt.Sprintf("shard %d (%s): circuit open", id, sh.client.Base)
			continue
		}
	attempt:
		for {
			status, hdr, body, err := rt.post(ctx, sh, path, reqBody, schedHdr)
			if err != nil {
				if ctx.Err() != nil {
					return Row{}, false
				}
				sh.breaker.failure()
				lastErr = fmt.Sprintf("shard %d (%s) unreachable: %v", id, sh.client.Base, err)
				break attempt // next-ranked shard
			}
			switch {
			case status == http.StatusOK:
				sh.breaker.success()
				row.Shard = id
				if id != owner {
					row.Failover = fmt.Sprintf("%d->%d", owner, id)
					vw.byID[owner].failovers.Inc()
				}
				row.Cache = hdr.Get("X-Cache")
				row.Result = json.RawMessage(body)
				rt.cacheFill(key, body)
				return row, true
			case status == http.StatusServiceUnavailable && hdr.Get("X-Terminal") == "":
				// Saturated, not shutting down: a LIVE backend asking for
				// patience — honor the advertised wait (the shared clamp —
				// service.RetryWait — also covers the backend's own
				// in-process sweep retries, so the two paths cannot
				// drift), and stay on this shard: its queue drains, and
				// failing over a mere burst would shed the owner's warm
				// cache for nothing.
				sh.breaker.success()
				sh.retries.Inc()
				if !service.SleepRetryAfter(ctx, hdr.Get("Retry-After")) {
					return Row{}, false
				}
			case status == http.StatusServiceUnavailable:
				// Terminal: the backend is going away.
				sh.breaker.failure()
				lastErr = fmt.Sprintf("shard %d (%s) shutting down", id, sh.client.Base)
				break attempt // next-ranked shard
			default:
				// A deterministic error (bad spec, simulation failure):
				// every shard computes the same answer, so failing over
				// would just repeat it more expensively.
				sh.breaker.success()
				row.Shard = id
				var e struct {
					Error string `json:"error"`
				}
				if json.Unmarshal(body, &e) == nil && e.Error != "" {
					row.Error = e.Error
				} else {
					row.Error = fmt.Sprintf("status %d", status)
				}
				return row, true
			}
		}
	}
	row.Error = fmt.Sprintf("no live shard for variant (owner %d): %s", owner, lastErr)
	return row, true
}

// resolveStolen computes one variant on a shard that is NOT its
// owner — the work-stealing path. Before the thief spends a worker,
// the router cache and then the owner's store are probed (GET
// /results?key=...): a queued variant already held — a warm replay
// stuck behind a deep backlog — is answered from the held bytes as a
// cache hit, untagged, because nothing was stolen. Only a genuine
// miss is simulated on the thief, driven exactly like an owner would
// be (saturation 503s wait out Retry-After on the thief; a
// deterministic error is final); on success the row is tagged Stolen
// and the result body is written back to the owner's store, so
// ownership-based cache placement holds even though another shard
// simulated. A dead or terminal thief sends the variant down the
// ordinary rank-walk (resolveVariant) — stealing may change who
// computes, never whether the row appears.
func (rt *Router) resolveStolen(ctx context.Context, vw *view, v sweep.Variant, owner, thief int, path, runModel string, schedHdr http.Header) (Row, bool) {
	key := resultKeyFor(path, runModel, v.Hash)
	if cached, ok := rt.cacheLookup(key); ok {
		return Row{SweepRow: service.SweepRow{
			Index:  v.Index,
			Name:   v.Spec.Name,
			Hash:   v.Hash,
			Params: v.Params,
			Cache:  routerHit,
			Result: json.RawMessage(cached),
		}, Shard: owner}, true
	}
	if row, ok, done := rt.probeOwner(ctx, vw, v, owner, path, runModel); done {
		return Row{}, false
	} else if ok {
		return row, true
	}
	sh := vw.byID[thief]
	if !sh.breaker.allow() {
		return rt.resolveVariant(ctx, vw, v, path, runModel, schedHdr)
	}
	row := Row{SweepRow: service.SweepRow{
		Index:  v.Index,
		Name:   v.Spec.Name,
		Hash:   v.Hash,
		Params: v.Params,
	}, Shard: thief}
	reqBody := variantRequest(v, runModel)
	for {
		status, hdr, body, err := rt.post(ctx, sh, path, reqBody, schedHdr)
		if err != nil {
			if ctx.Err() != nil {
				return Row{}, false
			}
			sh.breaker.failure()
			return rt.resolveVariant(ctx, vw, v, path, runModel, schedHdr)
		}
		switch {
		case status == http.StatusOK:
			sh.breaker.success()
			row.Cache = hdr.Get("X-Cache")
			row.Result = json.RawMessage(body)
			row.Stolen = fmt.Sprintf("%d->%d", owner, thief)
			sh.steals.Inc()
			rt.cacheFill(key, body)
			rt.writeBack(ctx, vw, owner, thief, key, body)
			return row, true
		case status == http.StatusServiceUnavailable && hdr.Get("X-Terminal") == "":
			// The thief itself is saturated: wait it out here rather
			// than bouncing the variant around the cluster.
			sh.breaker.success()
			sh.retries.Inc()
			if !service.SleepRetryAfter(ctx, hdr.Get("Retry-After")) {
				return Row{}, false
			}
		case status == http.StatusServiceUnavailable:
			sh.breaker.failure()
			return rt.resolveVariant(ctx, vw, v, path, runModel, schedHdr)
		default:
			// Deterministic error: every shard answers identically, so
			// the thief's answer IS the answer.
			sh.breaker.success()
			var e struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(body, &e) == nil && e.Error != "" {
				row.Error = e.Error
			} else {
				row.Error = fmt.Sprintf("status %d", status)
			}
			return row, true
		}
	}
}

// probeOwner asks a variant's owner whether it already holds the
// stored result (GET /results?key=...) before a thief re-simulates
// it. hit=true carries an owner-served cache-hit row; done=true means
// the client's context ended mid-probe. Any owner trouble — open
// circuit, transport error, 404, anything unexpected — is a clean
// miss: the probe is an optimization, never a gate, so the steal
// proceeds and correctness rests on the thief as before.
func (rt *Router) probeOwner(ctx context.Context, vw *view, v sweep.Variant, owner int, path, runModel string) (row Row, hit, done bool) {
	key := resultKeyFor(path, runModel, v.Hash)
	if key == "" {
		return Row{}, false, false
	}
	ow := vw.byID[owner]
	if !ow.breaker.allow() {
		return Row{}, false, false
	}
	probe, cancel := context.WithTimeout(ctx, healthTimeout)
	status, _, body, err := ow.client.Do(probe, http.MethodGet, "/results?key="+url.QueryEscape(key), nil, nil)
	cancel()
	if err != nil {
		if ctx.Err() != nil {
			return Row{}, false, true
		}
		ow.breaker.failure()
		return Row{}, false, false
	}
	ow.breaker.success()
	if status != http.StatusOK {
		return Row{}, false, false
	}
	rt.cacheFill(key, body)
	return Row{SweepRow: service.SweepRow{
		Index:  v.Index,
		Name:   v.Spec.Name,
		Hash:   v.Hash,
		Params: v.Params,
		Cache:  "hit",
		Result: json.RawMessage(body),
	}, Shard: owner}, true, false
}

// writeBack posts a stolen result to the owner's POST /results under
// the content-addressed key the owner's own simulation would have
// persisted it under. Failure is dropped silently: the write-back is
// cache placement, not correctness — a dead owner repopulates from
// replay when it returns.
func (rt *Router) writeBack(ctx context.Context, vw *view, owner, thief int, key string, body []byte) {
	if key == "" {
		return
	}
	if rt.attemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.attemptTimeout)
		defer cancel()
	}
	vw.byID[owner].client.Do(ctx, http.MethodPost, "/results", body, http.Header{
		"Content-Type":          {"application/json"},
		service.ResultKeyHeader: {key},
		service.StolenHeader:    {fmt.Sprintf("%d->%d", owner, thief)},
	})
}

// fetchManifest walks the sweep id's rendezvous rank order (under the
// current topology) for a stored manifest: any live shard holding a
// valid copy answers, 404s and dead shards are walked past, and a
// corrupt copy is skipped the same way — the caller's fallback (404:
// re-POST the grid) is the honest one, never a guess.
func (rt *Router) fetchManifest(ctx context.Context, id string) (*service.SweepManifest, bool) {
	vw := rt.view()
	for _, sid := range RankIDs(id, vw.ids) {
		sh := vw.byID[sid]
		if !sh.breaker.allow() {
			continue
		}
		probe, cancel := context.WithTimeout(ctx, healthTimeout)
		status, _, body, err := sh.client.Do(probe, http.MethodGet, "/sweep/"+id, nil, nil)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return nil, false
			}
			sh.breaker.failure()
			continue
		}
		sh.breaker.success()
		if status != http.StatusOK {
			continue
		}
		var st service.SweepStatus
		if json.Unmarshal(body, &st) != nil {
			continue
		}
		m := st.SweepManifest
		if m.Version != 1 || m.ID != id || m.Total <= 0 {
			continue
		}
		m.Normalize()
		return &m, true
	}
	return nil, false
}

// loadOrNewManifest resumes the cluster's stored manifest when its
// grid size still matches, otherwise starts a fresh one — the router
// twin of the backend's loadOrNewManifest.
func (rt *Router) loadOrNewManifest(ctx context.Context, id string, req service.SweepRequest, total int) *service.SweepManifest {
	if m, ok := rt.fetchManifest(ctx, id); ok && m.Total == total {
		return m
	}
	return &service.SweepManifest{
		Version: 1, ID: id, Request: req, Total: total,
		Done: sweep.NewBitset(total), Failed: sweep.NewBitset(total),
	}
}

// checkpointManifest writes the manifest through to the first live
// shard in the sweep id's rank order (PUT /sweep/{id} merge-persists
// shard-side, so concurrent streams and routers union their progress
// instead of clobbering). The context is detached from the request:
// the final checkpoint after a client disconnect is precisely the
// one its resume needs. Total failure leaves the previous checkpoint
// standing — bookkeeping lost, correctness untouched.
func (rt *Router) checkpointManifest(m *service.SweepManifest) {
	body, err := json.Marshal(m)
	if err != nil {
		return
	}
	vw := rt.view()
	for _, sid := range RankIDs(m.ID, vw.ids) {
		sh := vw.byID[sid]
		if !sh.breaker.allow() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
		status, _, _, err := sh.client.Do(ctx, http.MethodPut, "/sweep/"+m.ID, body, http.Header{"Content-Type": {"application/json"}})
		cancel()
		if err != nil {
			sh.breaker.failure()
			continue
		}
		sh.breaker.success()
		// 204 is stored; any 4xx is deterministic and would repeat on
		// every shard — either way this checkpoint is settled.
		_ = status
		return
	}
}

// handleSweepStatus serves GET /sweep/{id}: the stored manifest with
// derived progress counts, fetched from the first live shard holding
// a copy.
func (rt *Router) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := r.PathValue("id")
	m, ok := rt.fetchManifest(r.Context(), id)
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown sweep %q (re-POST the grid to /sweep to rebuild it)", id)
		return
	}
	body, err := json.Marshal(m.Status())
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(service.SweepIDHeader, id)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handleSweepResume serves GET /sweep/{id}/resume?after=N: the stored
// sweep's cluster stream restricted to variants with Index > N. Same
// replay-not-delta semantics as the backend: every variant past the
// offset streams again regardless of manifest bits (done ones at
// cache speed), so duplicate offsets are idempotent and a lost
// checkpoint can never turn into a silent gap.
func (rt *Router) handleSweepResume(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	after := -1
	if q := r.URL.Query().Get("after"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, "after=%q is not an integer", q)
			return
		}
		after = n
	}
	if after < -1 {
		after = -1
	}
	id := r.PathValue("id")
	m, ok := rt.fetchManifest(r.Context(), id)
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown sweep %q (re-POST the grid to /sweep to rebuild it)", id)
		return
	}
	rt.sweepResumes.Inc()
	schedHdr, err := rt.identHeader(r, sched.Batch.String())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	rt.streamSweep(w, r, m.Request, after, schedHdr)
}

// handleSweepStoredAnalyze serves POST /sweep/{id}/analyze: the
// analysis selector in the body applied to the STORED sweep's grid.
// A completed sweep re-analyzes with zero simulations — every
// variant is a shard cache hit — and the document is byte-identical
// to POST /sweep/analyze with the grid inlined, because both run the
// same collect-and-aggregate path.
func (rt *Router) handleSweepStoredAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var sel agg.Request
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sel); err != nil {
		writeError(w, r, http.StatusBadRequest, "parsing analysis selector: %v", err)
		return
	}
	id := r.PathValue("id")
	m, ok := rt.fetchManifest(r.Context(), id)
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown sweep %q (re-POST the grid to /sweep to rebuild it)", id)
		return
	}
	schedHdr, err := rt.identHeader(r, sched.Batch.String())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	rt.analyzeGrid(w, r, service.AnalyzeRequest{SweepRequest: m.Request, Request: sel}, schedHdr)
}
