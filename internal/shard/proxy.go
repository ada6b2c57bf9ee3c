// The proxy plane: POST /run and /compare forwarded to the spec's
// owner, and the backend attempt loop every hop of the router to a
// worker goes through — a client's own /run relayed, and every /batch
// of a sweep: an owner's run, a variant's rank walk, a thief's misses.
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jsonenc"
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

// cacheFill stores a relayed 200 body in the router cache. Only a body
// in exactly the form json.Marshal writes (jsonenc.Verbatim) is
// admitted, so a hit — its envelope verified on the way out — is a
// result the sweep row encoder may copy unchecked (SettleVerbatim); any
// other body is still relayed, just never cached. A body whose envelope
// alone exceeds the budget is not cached at all.
func (rt *Router) cacheFill(key string, body []byte) {
	if rt.cache != nil && key != "" && jsonenc.Verbatim(body) {
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
	hdr := id.Header()
	hdr.Set("Content-Type", "application/json")
	var shard, status int
	var respHdr http.Header
	var respBody []byte
	served, refused, alive := rt.attempt(r.Context(), vw, ranks, 1, func(ctx context.Context, at int, cl *service.Client) (err error) {
		status, respHdr, respBody, err = cl.Do(ctx, http.MethodPost, path, body, hdr)
		switch {
		case err != nil:
			return err
		case status == http.StatusServiceUnavailable && respHdr.Get("X-Terminal") != "":
			return errShuttingDown
		}
		shard = at
		return nil
	})
	if !alive {
		return // client gone; nothing to say and no one to say it to
	}
	if !served {
		service.WriteError(w, r, http.StatusBadGateway, "no live shard for spec (owner %d): %s", owner, refused)
		return
	}
	for _, name := range proxyHeaders {
		if v := respHdr.Get(name); v != "" {
			w.Header().Set(name, v)
		}
	}
	w.Header().Set("X-Shard", strconv.Itoa(shard))
	if shard != owner {
		w.Header().Set("X-Failover", fmt.Sprintf("%d->%d", owner, shard))
		vw.byID[owner].failovers.Inc()
		log.Printf("failover endpoint=%s owner=%d served=%d rid=%s reason=%q",
			path, owner, shard, obs.RequestIDFrom(r.Context()), refused)
	}
	if status == http.StatusOK {
		rt.cacheFill(key, respBody)
	}
	w.WriteHeader(status)
	w.Write(respBody)
}

// errShuttingDown is a terminal 503 (X-Terminal, or a /batch record
// marked terminal): the backend answered that it is going away.
var errShuttingDown = errors.New("shutting down")

// errAttemptCut is a /batch the per-attempt timeout cut while the
// caller was still waiting: the worker may be live and waiting out its
// saturation, so the cut is stepped past without a breaker charge.
var errAttemptCut = errors.New("attempt timeout cut the batch")

// attempt is the router's one backend attempt loop, the only place a
// hop to a worker walks candidates and charges breakers: it makes call
// on candidates (stable shard IDs, in preference order) until one
// returns nil, and that is the answer, whatever it carries — a
// deterministic error is the same on every shard, and a saturation 503
// is relayed to a /run client or, on a /batch line, waited out by the
// worker, where the queue is; the router never sleeps on a Retry-After.
// An open circuit is skipped. Any error costs one step down the list:
// a transport error (service.Unreachable) or errShuttingDown charges
// the breaker, errAttemptCut leaves it be, and any other — a /batch
// reply that settled no line — counts as a live answer.
//
// Each call is bounded by n (the variants it carries) times the
// per-attempt timeout, if one is set, so a batch of K does not fail a
// healthy shard over sooner than K single calls would, and is timed
// into the shard's attempt histogram.
//
// refused is the last refusal reason seen, whoever answered in the end;
// served=false means every candidate refused; alive=false means ctx
// ended first.
func (rt *Router) attempt(ctx context.Context, vw *view, candidates []int, n int, call func(ctx context.Context, id int, cl *service.Client) error) (served bool, refused string, alive bool) {
	for _, id := range candidates {
		if ctx.Err() != nil {
			return false, refused, false
		}
		sh := vw.byID[id]
		if !sh.breaker.allow() {
			refused = fmt.Sprintf("shard %d (%s): circuit open", id, sh.client.Base)
			continue
		}
		callCtx, cancel := ctx, context.CancelFunc(func() {})
		if rt.attemptTimeout > 0 {
			callCtx, cancel = context.WithTimeout(ctx, time.Duration(n)*rt.attemptTimeout)
		}
		start := time.Now()
		err := call(callCtx, id, sh.client)
		sh.attempts.Observe(time.Since(start).Seconds())
		cancel()
		switch {
		case err == nil:
			sh.breaker.success()
			return true, refused, true
		case errors.Is(err, errAttemptCut):
		case !service.Unreachable(err) && !errors.Is(err, errShuttingDown):
			sh.breaker.success()
		case ctx.Err() != nil:
			return false, refused, false
		default:
			sh.breaker.failure()
		}
		refused = fmt.Sprintf("shard %d (%s): %v", id, sh.client.Base, err)
	}
	return false, refused, true
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
