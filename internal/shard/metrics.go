// The router's metric vocabulary and its cluster-wide GET /metrics.
//
// The router exposes two kinds of series from one endpoint: its own
// simd_router_* families (request counts and latency, per-backend
// attempt latency, failover/retry counters, breaker state and trips,
// topology epoch, result-cache traffic, migration counts, per-shard
// restarts), and every live backend's simd_* families re-exposed
// verbatim under a shard="<id>" label. One scrape of the router
// therefore sees the whole cluster — no per-worker scrape
// configuration, and the shard label keeps N workers' identically
// named series apart. Backend sample values pass through as raw
// strings (parse → relabel → merge, never through float64), so the
// router reprints exactly what the worker said.
//
// Every shard-labeled series is keyed by the shard's STABLE ID, not
// its position in the current membership: a drain that removes shard
// 1 does not re-label shard 2's series, and a shard admitted later
// gets a fresh label no previous member ever used. Series bound to a
// drained shard stop moving but remain registered (the obs registry
// has no unregister) — a frozen counter under a retired ID is honest
// history, not noise.
package shard

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// scrapeTimeout bounds one backend /metrics fetch inside the router's
// aggregated scrape; a dead shard must not stall the cluster view.
const scrapeTimeout = 2 * time.Second

// initMetrics registers the router's families and binds the boot-time
// shards' series. Called from New after the initial view exists;
// shards admitted later bind through bindShardMetrics at admission.
func (rt *Router) initMetrics() {
	reg := obs.NewRegistry()
	rt.reg = reg
	rt.httpMetrics = obs.NewHTTPMetrics(reg, "simd_router_")

	rt.attemptsVec = reg.HistogramVec("simd_router_attempt_seconds", "Backend call latency (a /run, a /compare, or a sweep's /batch run) by shard (stable ID).", obs.DefTimeBuckets, "shard")
	rt.failoversVec = reg.CounterVec("simd_router_failovers_total", "Requests served away from their owning shard, by owner (stable ID).", "shard")
	rt.retriesVec = reg.CounterVec("simd_router_retries_total", "Saturation-503 retry waits against a live shard, by shard (stable ID).", "shard")
	rt.stealsVec = reg.CounterVec("simd_router_steals_total", "Sweep variants work-stolen and computed by this (thief) shard (stable ID).", "shard")
	rt.opensVec = reg.CounterVec("simd_router_breaker_opens_total", "Breaker trips into the open state, by shard (stable ID).", "shard")
	rt.stateVec = reg.GaugeVec("simd_router_breaker_state", "Breaker state by shard (stable ID): 0 closed, 1 half-open, 2 open.", "shard")
	if rt.sup != nil {
		rt.restartsVec = reg.CounterVec("simd_router_shard_restarts_total", "Supervisor respawns, by shard (stable ID).", "shard")
	}
	for _, sh := range rt.topo.shards {
		rt.bindShardMetrics(sh)
	}

	reg.GaugeFunc("simd_router_shards", "Current cluster member count.", func() float64 { return float64(len(rt.view().shards)) })
	reg.GaugeFunc("simd_topology_epoch", "Current topology epoch; increments on every admin grow or drain.", func() float64 { return float64(rt.view().epoch) })
	reg.GaugeFunc("simd_router_process_start_time_seconds", "Unix time the router started serving.", func() float64 { return float64(rt.since.Unix()) })
	rt.sweepRows = reg.Counter("simd_router_sweep_rows_total", "Sweep data rows streamed to clients.")
	rt.sweepResumes = reg.Counter("simd_router_sweep_resumes_total", "Sweep resume streams served by the router.")
	rt.cacheHits = reg.Counter("simd_router_cache_hits_total", "Requests and sweep variants served from the router's own result cache (X-Cache: router_hit).")
	rt.cacheMisses = reg.Counter("simd_router_cache_misses_total", "Router result-cache probes that fell through to a backend.")
	reg.GaugeFunc("simd_router_cache_bytes", "Encoded bytes currently held by the router result cache.", func() float64 {
		if rt.cache == nil {
			return 0
		}
		return float64(rt.cache.Bytes())
	})
	rt.migrated = reg.CounterVec("simd_migrated_envelopes_total", "Store envelopes migrated during drains, by source and destination shard (stable IDs).", "from", "to")
}

// bindShardMetrics resolves one shard's per-ID series — called once
// per shard at admission (With takes a lock; the serving path must
// not). The label is the stable ID, so a shard admitted after a drain
// can never collide with a retired member's history.
func (rt *Router) bindShardMetrics(sh *shardState) {
	label := strconv.Itoa(sh.id)
	sh.attempts = rt.attemptsVec.With(label)
	sh.failovers = rt.failoversVec.With(label)
	sh.retries = rt.retriesVec.With(label)
	sh.steals = rt.stealsVec.With(label)
	trip := rt.opensVec.With(label)
	sh.breaker.onTrip = trip.Inc
	rt.stateVec.Func(sh.breaker.StateCode, label)
	if rt.restartsVec != nil {
		id := sh.id
		rt.restartsVec.Func(func() uint64 {
			for _, p := range rt.sup.Status() {
				if p.Index == id {
					return uint64(p.Respawns)
				}
			}
			return 0
		}, label)
	}
}

// handleMetrics serves the aggregated GET /metrics: the router's own
// families merged with every reachable backend's, the backend series
// relabeled shard="<id>" (stable ID). A shard whose scrape fails is
// simply absent from this scrape (its own simd_router_* series —
// breaker state, failover counters — still tell the story); a
// synthetic simd_shard_up gauge reports per-shard scrapeability
// explicitly for the current membership.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		service.WriteError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	vw := rt.view()
	groups := make([][]obs.Family, len(vw.shards))
	up := make([]bool, len(vw.shards))
	var wg sync.WaitGroup
	for i, sh := range vw.shards {
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), scrapeTimeout)
			defer cancel()
			fams, err := scrapeBackend(ctx, sh)
			if err != nil {
				return
			}
			groups[i] = obs.Relabel(fams, "shard", strconv.Itoa(sh.id))
			up[i] = true
		}(i, sh)
	}
	wg.Wait()

	upReg := obs.NewRegistry()
	upVec := upReg.GaugeVec("simd_shard_up", "Whether the shard's /metrics answered this scrape, by stable ID.", "shard")
	for i, ok := range up {
		v := 0.0
		if ok {
			v = 1
		}
		upVec.With(strconv.Itoa(vw.shards[i].id)).Set(v)
	}

	all := make([][]obs.Family, 0, len(vw.shards)+2)
	all = append(all, rt.reg.Families(), upReg.Families())
	all = append(all, groups...)
	w.Header().Set("Content-Type", obs.ContentType)
	obs.WriteFamilies(w, obs.MergeFamilies(all...))
}

// scrapeBackend fetches and parses one backend's /metrics.
func scrapeBackend(ctx context.Context, sh *shardState) ([]obs.Family, error) {
	status, _, body, err := sh.client.Do(ctx, http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", status)
	}
	return obs.ParseText(bytes.NewReader(body))
}
