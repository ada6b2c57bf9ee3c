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
// bounded in-memory result cache (cacheLookup/cacheFill in proxy.go):
// a result body it has relayed once is served to repeats directly from
// router memory with zero backend round trips, tagged X-Cache:
// router_hit.
//
// Sweeps run on the one sweep engine (service.SweepEngine); what the
// cluster adds underneath it — per-shard lanes, work-stealing with
// owner write-back, cluster-wide manifests — is in sweep.go.
package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
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
	sweepConc        int
	breakerThreshold int
	breakerInterval  time.Duration
	httpClient       *http.Client
	sup              *Supervisor
	// cache is the router result cache (nil when disabled): result
	// bodies under the keys the backends persist them under, held as the
	// store's checksummed envelopes — the byte budget counts envelope
	// bytes — so an entry is verified before it is served.
	cache    *lru.Cache
	stop     chan struct{}
	stopOnce sync.Once
	since    time.Time

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
		sweepConc:        opt.SweepConcurrency,
		breakerThreshold: opt.BreakerThreshold,
		breakerInterval:  opt.BreakerInterval,
		httpClient:       opt.HTTP,
		sup:              opt.Supervisor,
		stop:             make(chan struct{}),
		since:            time.Now(),
	}
	if opt.RouterCacheBytes > 0 {
		rt.cache = lru.NewCache(opt.RouterCacheBytes, 0)
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
	sweeps := service.NewSweepEngine(clusterTier{rt}, rt.scenarioByName, opt.MaxSweepVariants, rt.sweepRows, rt.sweepResumes)
	handle("/sweep", sweeps.HandleSweep)
	handle("/sweep/analyze", sweeps.HandleAnalyze)
	handle("/sweep/{id}", sweeps.HandleStatus)
	handle("/sweep/{id}/resume", sweeps.HandleResume)
	handle("/sweep/{id}/analyze", sweeps.HandleStoredAnalyze)
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

// Handler returns the HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the router's background work (open-circuit probers).
// In-flight requests are unaffected; Close exists so embedding tests
// and servers can shut down without leaking probe goroutines against
// permanently dead backends.
func (rt *Router) Close() { rt.stopOnce.Do(func() { close(rt.stop) }) }
