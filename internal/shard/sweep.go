// The router's sweep transport: what the cluster tier supplies to the
// sweep engine (service.SweepEngine), which owns the orchestration.
//
// A chunk runs on one lane per shard of a fresh topology snapshot, each
// variant queued on the lane of its rendezvous owner, and the engine
// hands a lane its queue in runs. The owner's lane answers what it can
// of a run from the router cache and sends the rest to the owner in ONE
// backend call (POST /batch, batch.go in internal/service), which runs
// every line through the worker's own /run path; whatever that call
// does not settle — and every run of one — walks its rank order variant
// by variant (failover). Any other lane that takes a run from the
// owner's queue is a thief: per variant, it probes the owner's store
// first (stealing is for MISSES only — a warm replay stuck behind a
// backlog stays an owner cache hit, untagged), computes a genuine miss
// locally, and writes the body back to the owner's store, so ownership
// keeps deciding cache placement, never who simulates. Manifests are
// written through to a backend store in the sweep id's rank order, so
// a sweep's identity and progress survive the death of the client, the
// router AND any single shard.
package shard

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// Row is one NDJSON data line of the router's /sweep stream: the
// backend's row plus the stable ID of the shard that served the
// variant. Shard is always present (0 is a real shard; -1 marks a
// grid-level build error no shard served), which is why this is a
// distinct wire type rather than an omitempty field on the backend
// row. Failover is set ("owner->served") when the serving shard is
// not the owner — the stream-level form of the X-Failover header.
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

// clusterTier is the sweep engine's seam onto the cluster.
type clusterTier struct{ rt *Router }

func (t clusterTier) CheckCycleCap(sp spec.Spec) error { return t.rt.checkCycleCap(sp) }

func (t clusterTier) GridError(row service.SweepRow) service.SweepLine {
	return Row{SweepRow: row, Shard: -1}
}

// Begin validates the caller's scheduling identity at the front door —
// one clean 400, not a per-variant error row storm — and stamps it
// (class batch unless the client said otherwise) on every backend call
// the sweep's variants become, through failover and work-stealing.
// Each chunk is planned against a fresh topology snapshot, so a sweep
// spanning an admin resize starts using the new membership at the next
// chunk boundary, and one chunk never routes across two views.
func (t clusterTier) Begin(r *http.Request) (service.SweepPlanner, error) {
	id, err := service.ParseIdent(r, sched.Batch)
	if err != nil {
		return nil, err
	}
	hdr := id.Header()
	return func(m service.SweepModel, variants []sweep.Variant) service.SweepPlan {
		// Per-variant forwarding as individual /run (or /compare) calls —
		// rather than forwarding sub-grids — is what lets every variant
		// share the backend's full cache/coalescing path with direct
		// requests, and what makes failover per-variant.
		vw := t.rt.view()
		call := sweepCall{rt: t.rt, vw: vw, hdr: hdr, model: m}
		pos := make(map[int]int, len(vw.shards))
		lanes := make([]service.SweepLane, len(vw.shards))
		for i, sh := range vw.shards {
			pos[sh.id] = i
			// conc is also the steal threshold: a backlog within the
			// shard's own primed pipeline is left alone.
			lanes[i].Conc = sh.conc
		}
		for _, v := range variants {
			owner := pos[OwnerID(v.Hash, vw.ids)]
			lanes[owner].Queue = append(lanes[owner].Queue, v)
		}
		return service.SweepPlan{Lanes: lanes, Resolve: call.resolve}
	}, nil
}

// sweepCall is what every backend hop of one sweep chunk shares: the
// membership snapshot it routes against, the caller's scheduling
// identity, and the model that selects the per-variant endpoint.
type sweepCall struct {
	rt    *Router
	vw    *view
	hdr   http.Header
	model service.SweepModel
}

// resolve runs run on the shard at position lane of the chunk's view.
// The router cache is probed first, once per variant, whoever ends up
// computing. The misses then go, when the lane took the run from its
// own queue (position from is always the owner's), to the owner in one
// batch call, and down the rank walk one by one for whatever that did
// not settle; a thief resolves its misses one by one on the thief's
// path. false means the client's context ended.
func (c sweepCall) resolve(ctx context.Context, run []sweep.Variant, lane, from int, emit func(service.SweepLine)) bool {
	owner := c.vw.shards[from].id
	var misses []sweep.Variant
	var keys []string
	for _, v := range run {
		key := c.model.Key(v.Hash)
		if cached, ok := c.rt.cacheLookup(key); ok {
			row := Row{SweepRow: service.NewSweepRow(v), Shard: owner}
			row.Settle(routerHit, http.StatusOK, cached)
			emit(row)
			continue
		}
		misses, keys = append(misses, v), append(keys, key)
	}
	settled := 0
	if lane == from && len(misses) > 1 {
		settled = c.batch(ctx, owner, misses, keys, emit)
	}
	for i := settled; i < len(misses); i++ {
		var row Row
		var alive bool
		if lane == from {
			row, alive = c.rankWalk(ctx, misses[i], keys[i])
		} else {
			row, alive = c.resolveStolen(ctx, misses[i], keys[i], owner, c.vw.shards[lane].id)
		}
		if !alive {
			return false
		}
		emit(row)
	}
	return true
}

// batch offers run — misses that share an owner — to that owner in one
// POST /batch and emits the row of every variant the reply settles. It
// returns how many that is, always a prefix of run: zero when the
// owner's circuit is open, the call fails or the backend has no such
// route, short when the reply is, and cut at a 503 record (a worker
// that began shutting down mid-run). The rest is the rank walk's, so
// failover, retries and the error row stay in the one attempt loop.
// The breaker is owed what one attempt owes it: a failure for a
// transport error or a terminal 503, a success for any other answer.
func (c sweepCall) batch(ctx context.Context, owner int, run []sweep.Variant, keys []string, emit func(service.SweepLine)) (settled int) {
	sh := c.vw.byID[owner]
	if !sh.breaker.allow() {
		return 0
	}
	lines := make([][]byte, len(run))
	for i, v := range run {
		_, lines[i] = c.request(v)
	}
	// A run of K may take as long as K attempts: batching must not fail
	// a healthy shard over sooner than per-variant dispatch would.
	callCtx := ctx
	if c.rt.attemptTimeout > 0 {
		var cancel context.CancelFunc
		callCtx, cancel = context.WithTimeout(ctx, time.Duration(len(run))*c.rt.attemptTimeout)
		defer cancel()
	}
	start := time.Now()
	records, err := sh.client.RunBatch(callCtx, c.model.Compare, lines, c.hdr)
	sh.attempts.Observe(time.Since(start).Seconds())
	if service.Unreachable(err) {
		if ctx.Err() == nil {
			sh.breaker.failure()
		}
		return 0
	}
	for _, rec := range records {
		if rec.Status == http.StatusServiceUnavailable {
			if rec.Terminal {
				sh.breaker.failure()
				return settled
			}
			break
		}
		row := Row{SweepRow: service.NewSweepRow(run[settled]), Shard: owner}
		row.Settle(rec.Cache, rec.Status, rec.Body)
		if rec.Status == http.StatusOK {
			c.rt.cacheFill(keys[settled], rec.Body)
		}
		emit(row)
		settled++
	}
	sh.breaker.success()
	return settled
}

// request is the backend call that runs one variant: POST /compare, or
// POST /run with the model selector as the client spelled it.
func (c sweepCall) request(v sweep.Variant) (path string, body []byte) {
	if c.model.Compare {
		return "/compare", variantRequest(v, "")
	}
	return "/run", variantRequest(v, c.model.Name)
}

// variantRequest renders the service.RunRequest that runs one variant:
// the grid walk's canonical spec bytes, forwarded as they are instead
// of encoding the spec a second time. runModel is "" or one of the
// plain /run selectors.
func variantRequest(v sweep.Variant, runModel string) []byte {
	body := make([]byte, 0, len(v.Canonical)+len(runModel)+len(`{"spec":,"model":""}`))
	body = append(append(body, `{"spec":`...), v.Canonical...)
	if runModel != "" {
		body = append(append(append(body, `,"model":"`...), runModel...), '"')
	}
	return append(body, '}')
}

// rankWalk offers one variant to the shards in its rendezvous rank
// order, starting at its owner, through the attempt loop — saturation
// waited out on the live shard, a dead shard costing one step down the
// order, a deterministic error final. A row served by a non-owner
// carries the Failover tag; the error row exists only when every shard
// refused.
func (c sweepCall) rankWalk(ctx context.Context, v sweep.Variant, key string) (Row, bool) {
	ranks := RankIDs(v.Hash, c.vw.ids)
	owner := ranks[0]
	row := Row{SweepRow: service.NewSweepRow(v), Shard: owner}
	path, body := c.request(v)
	ans, refused, alive := c.rt.attempt(ctx, c.vw, ranks, path, body, c.hdr, true)
	switch {
	case !alive:
		return Row{}, false
	case ans.status == 0:
		row.Error = fmt.Sprintf("no live shard for variant (owner %d): %s", owner, refused)
		return row, true
	}
	row.Shard = ans.shard
	row.Settle(ans.hdr.Get("X-Cache"), ans.status, ans.body)
	if ans.status == http.StatusOK {
		if ans.shard != owner {
			row.Failover = fmt.Sprintf("%d->%d", owner, ans.shard)
			c.vw.byID[owner].failovers.Inc()
		}
		c.rt.cacheFill(key, ans.body)
	}
	return row, true
}

// resolveStolen computes one variant on a shard that is NOT its owner.
// Before the thief spends a worker the owner's store is probed: a
// queued variant already held is answered from the held bytes as a
// cache hit, untagged, because nothing was stolen. Only a genuine miss
// is simulated on the thief, driven exactly like an owner would be (the
// same attempt loop, with the thief as its only candidate); on success
// the row is tagged Stolen and the result body is written back to the
// owner's store. A dead or terminal thief sends the variant down the
// ordinary rank walk — stealing may change who computes, never whether
// the row appears.
func (c sweepCall) resolveStolen(ctx context.Context, v sweep.Variant, key string, owner, thief int) (Row, bool) {
	row := Row{SweepRow: service.NewSweepRow(v), Shard: owner}
	// Any owner trouble — open circuit, transport error, 404, anything
	// unexpected — is a clean miss: the probe is an optimization, never a
	// gate, so the steal proceeds (its attempt loop notices a client that
	// has gone) and correctness rests on the thief as before.
	var held []byte
	var hit bool
	c.vw.byID[owner].storeCall(ctx, func(ctx context.Context, cl *service.Client) (err error) {
		held, hit, err = cl.FetchResult(ctx, key)
		return err
	})
	if hit {
		c.rt.cacheFill(key, held)
		row.Settle("hit", http.StatusOK, held)
		return row, true
	}
	path, body := c.request(v)
	ans, _, alive := c.rt.attempt(ctx, c.vw, []int{thief}, path, body, c.hdr, true)
	switch {
	case !alive:
		return Row{}, false
	case ans.status == 0:
		return c.rankWalk(ctx, v, key)
	}
	row.Shard = thief
	row.Settle(ans.hdr.Get("X-Cache"), ans.status, ans.body)
	if ans.status == http.StatusOK {
		row.Stolen = fmt.Sprintf("%d->%d", owner, thief)
		c.vw.byID[thief].steals.Inc()
		c.rt.cacheFill(key, ans.body)
		c.writeBack(ctx, owner, thief, key, ans.body)
	}
	return row, true
}

// storeCall makes one store side-channel call to sh — a result probe or
// write-back, a manifest read or write, each a typed service.Client
// call — bounded by healthTimeout, with the breaker bookkeeping every
// backend call owes. answered=false means the backend did not answer:
// circuit open (call never ran), or a transport error (charged to the
// breaker unless it was ctx ending).
func (sh *shardState) storeCall(ctx context.Context, call func(context.Context, *service.Client) error) (answered bool) {
	if !sh.breaker.allow() {
		return false
	}
	bounded, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	if err := call(bounded, sh.client); service.Unreachable(err) {
		if ctx.Err() == nil {
			sh.breaker.failure()
		}
		return false
	}
	sh.breaker.success()
	return true
}

// writeBack stores a stolen result in the owner's cache tiers under the
// key the owner's own simulation would have persisted it under. Failure
// is dropped silently: the write-back is cache placement, not
// correctness — a dead owner repopulates from replay when it returns.
func (c sweepCall) writeBack(ctx context.Context, owner, thief int, key string, body []byte) {
	c.vw.byID[owner].storeCall(ctx, func(ctx context.Context, cl *service.Client) error {
		return cl.StoreResult(ctx, key, body, fmt.Sprintf("%d->%d", owner, thief))
	})
}

// LoadManifest walks the sweep id's rendezvous rank order (under the
// current topology) for a stored manifest: any live shard holding a
// valid copy answers, 404s and dead shards are walked past, and a
// corrupt copy is skipped the same way — the caller's fallback (404:
// re-POST the grid) is the honest one, never a guess.
func (t clusterTier) LoadManifest(ctx context.Context, id string) (*service.SweepManifest, bool) {
	vw := t.rt.view()
	for _, sid := range RankIDs(id, vw.ids) {
		var m *service.SweepManifest
		var ok bool
		vw.byID[sid].storeCall(ctx, func(ctx context.Context, cl *service.Client) (err error) {
			m, ok, err = cl.FetchManifest(ctx, id)
			return err
		})
		if ok || ctx.Err() != nil {
			return m, ok
		}
	}
	return nil, false
}

// SaveManifest writes the manifest through to the first live shard in
// the sweep id's rank order (PUT /sweep/{id} merge-persists shard-side,
// so concurrent streams and routers union their progress instead of
// clobbering). The context is detached from the request: the final
// checkpoint after a client disconnect is precisely the one its resume
// needs. Total failure leaves the previous checkpoint standing —
// bookkeeping lost, correctness untouched.
func (t clusterTier) SaveManifest(m *service.SweepManifest) {
	vw := t.rt.view()
	for _, sid := range RankIDs(m.ID, vw.ids) {
		// Stored, or refused for a reason that is deterministic and would
		// repeat on every shard — either way an answered PUT settles this
		// checkpoint.
		answered := vw.byID[sid].storeCall(context.Background(), func(ctx context.Context, cl *service.Client) error {
			return cl.PutManifest(ctx, m)
		})
		if answered {
			return
		}
	}
}
