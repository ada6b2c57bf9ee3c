// The proxy plane: POST /run and /compare forwarded to the spec's
// owner, and the backend attempt loop every per-spec hop of the router
// — a client's own /run, a sweep variant's rank walk, a thief's stolen
// variant — goes through.
package shard

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/store"
)

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

// cacheLookup probes the router result cache, counting the hit or
// miss. The envelope is verified on the way out: a corrupt entry is
// dropped and is a miss, never served — the same honesty contract the
// disk tier enforces. Always a miss when the cache is disabled or the
// key is unusable (then uncounted: no probe happened).
func (rt *Router) cacheLookup(key string) ([]byte, bool) {
	if rt.cache == nil || key == "" {
		return nil, false
	}
	if env, ok := rt.cache.Get(key); ok {
		if gotKey, body, err := store.DecodeEnvelope(env); err == nil && gotKey == key {
			rt.cacheHits.Inc()
			return body, true
		}
		rt.cache.Remove(key)
	}
	rt.cacheMisses.Inc()
	return nil, false
}

// cacheFill stores a relayed 200 body in the router cache. A body whose
// envelope alone exceeds the budget is not cached at all.
func (rt *Router) cacheFill(key string, body []byte) {
	if rt.cache != nil && key != "" {
		rt.cache.Put(key, store.EncodeEnvelope(key, body))
	}
}

// proxyHeaders is the response-header allowlist forwarded from a
// backend: the cache/replay contract, backpressure, and the per-stage
// timing breakdown.
var proxyHeaders = []string{"Content-Type", "X-Cache", "X-Spec-Hash", "Retry-After", "X-Terminal", "X-Timing"}

// handleProxy serves POST /run and /compare: hash, probe the router
// cache, then offer the body verbatim down the spec's rendezvous rank
// order starting at its owner and relay the first answer. The router
// adds X-Shard (the stable ID of the shard that served — the current
// owner for router-cache hits, which are placement-neutral) and, when
// the server isn't the owner, X-Failover ("owner->served") so
// operators can see both placement and degradation. A saturation 503
// is relayed with its Retry-After — backpressure is the client's to
// honor. 502 only when every shard refused.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request, path string) {
	if r.Method != http.MethodPost {
		service.WriteError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, service.MaxBodyBytes))
	if err != nil {
		service.WriteError(w, r, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	// Decode only far enough to route: validation beyond the router's
	// own max_cycles cap stays on the backend, which gets the original
	// bytes and so strict-decodes exactly what the client sent.
	req, sp, err := service.ResolveRunRequest(body, rt.scenarioByName)
	if err != nil {
		service.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	hash, err := sp.Hash()
	if err != nil {
		service.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if err := rt.checkCycleCap(sp); err != nil {
		service.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// Validated here, with the worker's own rules and wording, so a bad
	// identity is one clean 400 at the front door; forwarded so the
	// backend queues the work under the caller's tenant and class.
	id, err := service.ParseIdent(r, sched.Interactive)
	if err != nil {
		service.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	vw := rt.view()
	ranks := RankIDs(hash, vw.ids)
	owner := ranks[0]
	// No key (no cache) for a selector the backend will refuse anyway.
	model := req.Model
	if path == "/compare" {
		model = "compare"
	}
	key, _ := service.ResultKey(model, hash)
	if cached, ok := rt.cacheLookup(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", routerHit)
		w.Header().Set("X-Spec-Hash", hash)
		w.Header().Set("X-Shard", strconv.Itoa(owner))
		w.WriteHeader(http.StatusOK)
		w.Write(cached)
		return
	}
	ans, refused, alive := rt.attempt(r.Context(), vw, ranks, path, body, id.Header(), false)
	if !alive {
		return // client gone; nothing to say and no one to say it to
	}
	if ans.status == 0 {
		service.WriteError(w, r, http.StatusBadGateway, "no live shard for spec (owner %d): %s", owner, refused)
		return
	}
	for _, name := range proxyHeaders {
		if v := ans.hdr.Get(name); v != "" {
			w.Header().Set(name, v)
		}
	}
	w.Header().Set("X-Shard", strconv.Itoa(ans.shard))
	if ans.shard != owner {
		w.Header().Set("X-Failover", fmt.Sprintf("%d->%d", owner, ans.shard))
		vw.byID[owner].failovers.Inc()
		log.Printf("failover endpoint=%s owner=%d served=%d rid=%s reason=%q",
			path, owner, ans.shard, obs.RequestIDFrom(r.Context()), refused)
	}
	if ans.status == http.StatusOK {
		rt.cacheFill(key, ans.body)
	}
	w.WriteHeader(ans.status)
	w.Write(ans.body)
}

// answer is the backend response an attempt walk settled on; status 0
// means every candidate refused.
type answer struct {
	shard  int // stable ID of the shard that answered
	status int
	hdr    http.Header
	body   []byte
}

// attempt is the router's one backend attempt loop: it offers a request
// to candidates (stable shard IDs, in preference order) until one
// answers. A candidate whose circuit is open is skipped; a transport
// error or a terminal 503 (X-Terminal: the backend is shutting down)
// charges its breaker and costs one step down the list. Anything else
// is the answer — including a deterministic error (bad spec, simulation
// failure): every shard computes the same one, so failing over would
// just repeat it more expensively.
//
// A saturation 503 comes from a LIVE backend asking for patience. With
// patient set (sweep variants) the loop honors the advertised
// Retry-After — through service.SleepRetryAfter, the clamp the backend's
// own in-process sweep retries share — and stays on that shard: its
// queue drains, and failing over a mere burst would shed the owner's
// warm cache for nothing. Without it (a client's own /run) the 503 is
// the answer.
//
// refused is the last refusal reason seen, whoever answered in the end;
// alive=false means ctx ended first.
func (rt *Router) attempt(ctx context.Context, vw *view, candidates []int, path string, body []byte, hdr http.Header, patient bool) (ans answer, refused string, alive bool) {
candidates:
	for _, id := range candidates {
		sh := vw.byID[id]
		if !sh.breaker.allow() {
			refused = fmt.Sprintf("shard %d (%s): circuit open", id, sh.client.Base)
			continue
		}
		for {
			if ctx.Err() != nil {
				return answer{}, refused, false
			}
			status, respHdr, respBody, err := rt.post(ctx, sh, path, body, hdr)
			saturated := status == http.StatusServiceUnavailable
			switch {
			case err != nil:
				if ctx.Err() != nil {
					return answer{}, refused, false
				}
				sh.breaker.failure()
				refused = fmt.Sprintf("shard %d (%s) unreachable: %v", id, sh.client.Base, err)
				continue candidates
			case saturated && respHdr.Get("X-Terminal") != "":
				sh.breaker.failure()
				refused = fmt.Sprintf("shard %d (%s) shutting down", id, sh.client.Base)
				continue candidates
			case saturated && patient:
				sh.breaker.success()
				sh.retries.Inc()
				if !service.SleepRetryAfter(ctx, respHdr.Get("Retry-After")) {
					return answer{}, refused, false
				}
			default:
				sh.breaker.success()
				return answer{shard: id, status: status, hdr: respHdr, body: respBody}, refused, true
			}
		}
	}
	return answer{}, refused, true
}

// handleScenarios serves GET /scenarios — the same library every
// backend derives from the same spec data.
func (rt *Router) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		service.WriteError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(rt.scenariosBody)
}
