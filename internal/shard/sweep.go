// The router's sweep transport: what the cluster tier supplies to the
// sweep engine (service.SweepEngine), which owns the orchestration.
//
// A chunk's router-cache hits are answered as it is planned; the rest
// runs on one lane per shard of a fresh topology snapshot, each variant
// queued on the lane of its rendezvous owner, and the engine hands a
// lane its queue in runs. Every hop of a variant to a worker is a POST
// /batch (batch.go in internal/service), which runs each line through
// the worker's own /run path and waits out the worker's saturation
// there; each goes through the router's one attempt loop (proxy.go).
// The owner's lane sends its run to the owner in one call; whatever
// that call does not settle — and a run of one — walks its rank order
// variant by variant as a batch of one (failover). Any other lane that
// takes a run from the owner's queue is a thief: per variant, it
// probes the owner's store first (stealing is for MISSES only — a warm
// replay stuck behind a backlog stays an owner cache hit, untagged),
// computes the genuine misses in one call on its own shard, and writes
// each body back to the owner's store, so ownership keeps deciding
// cache placement, never who simulates. Manifests are written through
// to a backend store in the sweep id's rank order, so a sweep's
// identity and progress survive the death of the client, the router
// AND any single shard.
package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// Row is one NDJSON data line of the router's /sweep stream: the
// backend's row plus placement tags. The service package declares it,
// so that the one row encoder knows it by name.
type Row = service.PlacedRow

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
		// Forwarding each variant as its own /batch line — the body a
		// direct request for it would carry, rather than a sub-grid — is
		// what lets every variant share the backend's full cache and
		// coalescing path with direct requests, and what makes failover
		// per-variant.
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
		// Answer every router-cache hit up front, as a worker answers
		// its own cache: a warm chunk streams as one burst of ready rows,
		// and the lanes see only misses. This is each variant's one
		// router-cache probe, whoever ends up computing it.
		var ready []service.SweepLine
		for _, v := range variants {
			owner := OwnerID(v.Hash, vw.ids)
			if cached, ok := t.rt.cacheLookup(m.Key(v.Hash)); ok {
				row := Row{SweepRow: service.NewSweepRow(v), Shard: owner}
				row.SettleVerbatim(routerHit, cached)
				ready = append(ready, row)
				continue
			}
			lanes[pos[owner]].Queue = append(lanes[pos[owner]].Queue, v)
		}
		return service.SweepPlan{Ready: ready, Lanes: lanes, Resolve: call.resolve}
	}, nil
}

// sweepCall is what every backend hop of one sweep chunk shares: the
// membership snapshot it routes against, the caller's scheduling
// identity, and the model every /batch line runs.
type sweepCall struct {
	rt    *Router
	vw    *view
	hdr   http.Header
	model service.SweepModel
}

// resolve runs run — variants the router cache missed when the chunk
// was planned — on the shard at position lane of the chunk's view;
// position from is their owner's. A variant replayed from a sweep's
// list is built before it goes anywhere (Variant.Full); one whose built
// hash is not the listed one walks its own rank order, since the list
// placed it. A thief (lane != from) answers what the owner's store
// already holds. The rest go to the lane's shard in one /batch, and
// whatever that call does not settle walks its rank order; a run of one
// on the owner's lane is that walk from the start. false means the
// client's context ended.
func (c sweepCall) resolve(ctx context.Context, run []sweep.Variant, lane, from int, emit func(service.SweepLine)) bool {
	owner, at := c.vw.shards[from].id, c.vw.shards[lane].id
	misses := make([]sweep.Variant, 0, len(run))
	for _, v := range run {
		full, err := v.Full()
		switch {
		case err != nil:
			emit(clusterTier{}.GridError(service.FailedRow(full, err)))
		case full.Hash != v.Hash:
			if !c.rankWalk(ctx, full, emit) {
				return false
			}
		case at != owner && c.heldByOwner(ctx, full, owner, emit):
			// Answered from the owner's store: nothing to steal.
		default:
			misses = append(misses, full)
		}
	}
	settled := 0
	if len(misses) > 1 || len(misses) == 1 && at != owner {
		var alive bool
		if settled, _, alive = c.batch(ctx, []int{at}, owner, at != owner, misses, emit); !alive {
			return false
		}
	}
	for _, v := range misses[settled:] {
		if !c.rankWalk(ctx, v, emit) {
			return false
		}
	}
	return true
}

// errSettledNone is a /batch reply, status 200, that settled no line:
// empty, malformed, or led by a saturation 503 record (which a worker
// never writes: it waits its saturation out).
var errSettledNone = errors.New("batch reply settled no line")

// batch offers run to candidates through the attempt loop, one POST
// /batch per attempt, and emits the row of every variant the answering
// shard's reply settles. It returns how many that is, always a prefix
// of run: a reply settles its records up to the first 503 record, and
// one marked terminal (the shard is shutting down) charges the shard as
// a transport error would. A whole-request 4xx but 404 is final and
// settles every line with its body. A reply that settles nothing, a
// 404 or 5xx (a backend without the route), and a call the attempt
// timeout cut — a live worker may be waiting out its saturation — are
// walked past uncharged. A run of more than one is given one candidate:
// what that shard does not settle is each variant's own rank walk,
// never a shard in another variant's order.
//
// A 200 row served away from owner is tagged — Stolen when steal says
// the candidate is a thief, whose result is then written back to the
// owner's store, Failover otherwise.
func (c sweepCall) batch(ctx context.Context, candidates []int, owner int, steal bool, run []sweep.Variant, emit func(service.SweepLine)) (settled int, refused string, alive bool) {
	lines := make([][]byte, len(run))
	for i, v := range run {
		lines[i] = c.line(v)
	}
	var records []service.BatchRecord
	var at int
	_, refused, alive = c.rt.attempt(ctx, c.vw, candidates, len(run), func(ctx context.Context, id int, cl *service.Client) error {
		reply, err := cl.RunBatch(ctx, c.model.Compare, lines, c.hdr)
		var refusal *service.StatusError
		switch {
		case errors.As(err, &refusal) && refusal.Status/100 == 4 && refusal.Status != http.StatusNotFound:
			// A whole-request 4xx (a malformed identity, a body over
			// the bound) is the same on every shard: it answers every line.
			reply = make([]service.BatchRecord, len(lines))
			for i := range reply {
				reply[i] = service.BatchRecord{Status: refusal.Status, Body: refusal.Body}
			}
		case err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded):
			return errAttemptCut
		case err != nil:
			return err
		}
		n := 0
		for n < len(reply) && reply[n].Status != http.StatusServiceUnavailable {
			n++
		}
		records, at = reply[:n], id
		switch {
		case n < len(reply) && reply[n].Terminal:
			return errShuttingDown
		case n == 0:
			return errSettledNone
		}
		return nil
	})
	if !alive {
		return 0, refused, false
	}
	for i, rec := range records {
		row := Row{SweepRow: service.NewSweepRow(run[i]), Shard: at}
		row.Settle(rec.Cache, rec.Status, rec.Body)
		if rec.Status == http.StatusOK {
			key := c.model.Key(run[i].Hash)
			c.rt.cacheFill(key, rec.Body)
			switch {
			case at == owner:
			case steal:
				row.Stolen = fmt.Sprintf("%d->%d", owner, at)
				c.vw.byID[at].steals.Inc()
				c.writeBack(ctx, owner, at, key, rec.Body)
			default:
				row.Failover = fmt.Sprintf("%d->%d", owner, at)
				c.vw.byID[owner].failovers.Inc()
			}
		}
		emit(row)
	}
	return len(records), refused, true
}

// line is the /batch line that runs v: the body of the /compare, or of
// the /run with the model selector as the client spelled it, that a
// direct request for v would carry.
func (c sweepCall) line(v sweep.Variant) []byte {
	if c.model.Compare {
		return variantRequest(v, "")
	}
	return variantRequest(v, c.model.Name)
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
// order, starting at its owner, as a batch of one: a dead or shutting-
// down shard costs one step down the order, a deterministic error is
// final, and the error row exists only when every shard refused. A row
// served by a non-owner carries the Failover tag.
func (c sweepCall) rankWalk(ctx context.Context, v sweep.Variant, emit func(service.SweepLine)) bool {
	ranks := RankIDs(v.Hash, c.vw.ids)
	settled, refused, alive := c.batch(ctx, ranks, ranks[0], false, []sweep.Variant{v}, emit)
	if alive && settled == 0 {
		row := Row{SweepRow: service.NewSweepRow(v), Shard: ranks[0]}
		row.Error = fmt.Sprintf("no live shard for variant (owner %d): %s", ranks[0], refused)
		emit(row)
	}
	return alive
}

// heldByOwner is a thief's probe of the owner's store before it spends
// a worker on v: a variant already held is emitted from the held bytes
// as the owner's cache hit, untagged, because nothing was stolen. Any
// owner trouble — open circuit, transport error, 404, anything
// unexpected — is a clean miss: the probe is an optimization, never a
// gate, so the steal proceeds and correctness rests on the thief.
func (c sweepCall) heldByOwner(ctx context.Context, v sweep.Variant, owner int, emit func(service.SweepLine)) bool {
	key := c.model.Key(v.Hash)
	var held []byte
	var hit bool
	c.vw.byID[owner].storeCall(ctx, func(ctx context.Context, cl *service.Client) (err error) {
		held, hit, err = cl.FetchResult(ctx, key)
		return err
	})
	if hit {
		c.rt.cacheFill(key, held)
		row := Row{SweepRow: service.NewSweepRow(v), Shard: owner}
		row.Settle("hit", http.StatusOK, held)
		emit(row)
	}
	return hit
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
