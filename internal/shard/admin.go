// The router's admin surface: live cluster resize. POST /admin/shards
// grows the cluster — new workers are spawned (supervised clusters)
// or adopted (an explicit backend list), admitted under fresh stable
// IDs in ONE epoch bump, and start owning their rendezvous slice of
// every subsequent request. POST /admin/shards/{id}/drain shrinks it:
// the retiring shard's store is enumerated and every envelope is
// migrated to its new rendezvous owner BEFORE the member is removed,
// so a drain is a cache relocation, never a cache loss — the drained
// shard's keys replay as warm hits from their new owners.
//
// Drain ordering is deliberate: migrate under the OLD topology, then
// swap, then re-enumerate once for stragglers written by requests
// that raced the swap. Pass 1 is strict (any failure aborts the drain
// with the topology unchanged); pass 2 is best-effort, because by
// then the retiring shard is out of the routing tables and every
// result it still holds is a recomputable cache entry, not the only
// copy of anything.
package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/service"
)

// migrateOpTimeout bounds one per-key migration call (enumerate,
// fetch, post, verify are each one local store operation on the
// backend — seconds means something is wrong, not slow).
const migrateOpTimeout = 5 * time.Second

// growRequest is the POST /admin/shards body: exactly one of Count
// (supervised clusters: spawn this many new workers) or Backends
// (adopt externally managed workers at these URLs).
type growRequest struct {
	Count    int      `json:"count,omitempty"`
	Backends []string `json:"backends,omitempty"`
}

// DrainReport is the POST /admin/shards/{id}/drain response body.
type DrainReport struct {
	// Drained is the stable ID of the removed shard.
	Drained int `json:"drained"`
	// Moved counts envelopes migrated before the topology swap.
	Moved int `json:"moved"`
	// Stragglers counts envelopes found by the post-swap re-sweep —
	// results written to the retiring shard by requests that raced the
	// drain, migrated best-effort.
	Stragglers int `json:"stragglers"`
	// Epoch and Topology describe the membership after the drain.
	Epoch    int64    `json:"epoch"`
	Topology []Member `json:"topology"`
}

// handleAdminShards serves /admin/shards: GET returns the current
// topology (epoch + members); POST grows the cluster and returns the
// new topology. Growth is atomic from the routing plane's point of
// view — every new worker is spawned and probed first, then the whole
// batch is admitted in one epoch bump, so no request ever routes
// against a half-admitted batch.
func (rt *Router) handleAdminShards(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, rt.Topology())
	case http.MethodPost:
		rt.handleGrow(w, r)
	default:
		service.WriteError(w, r, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

// handleGrow admits new members: spawned through the supervisor
// (count) or adopted from an explicit URL list (backends).
func (rt *Router) handleGrow(w http.ResponseWriter, r *http.Request) {
	var req growRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, service.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		service.WriteError(w, r, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	if (req.Count > 0) == (len(req.Backends) > 0) {
		service.WriteError(w, r, http.StatusBadRequest, "send exactly one of count or backends")
		return
	}
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	var shs []*shardState
	if req.Count > 0 {
		if rt.sup == nil {
			service.WriteError(w, r, http.StatusBadRequest, "count requires a supervised cluster; this router fronts external backends (send backends instead)")
			return
		}
		ids := rt.allocIDs(req.Count)
		for _, id := range ids {
			p, err := rt.sup.Add(id)
			if err != nil {
				// Roll the partial batch back: nothing was admitted yet,
				// so retiring the already-spawned workers restores the
				// exact pre-request state.
				for _, sh := range shs {
					rt.sup.Retire(sh.id)
				}
				service.WriteError(w, r, http.StatusBadGateway, "spawning shard %d: %v", id, err)
				return
			}
			sh, err := rt.newShardState(id, p.URL)
			if err != nil {
				for _, prev := range shs {
					rt.sup.Retire(prev.id)
				}
				rt.sup.Retire(id)
				service.WriteError(w, r, http.StatusInternalServerError, "shard %d: %v", id, err)
				return
			}
			shs = append(shs, sh)
		}
	} else {
		ids := rt.allocIDs(len(req.Backends))
		for i, base := range req.Backends {
			sh, err := rt.newShardState(ids[i], base)
			if err != nil {
				service.WriteError(w, r, http.StatusBadRequest, "%v", err)
				return
			}
			shs = append(shs, sh)
		}
	}
	rt.probeConcurrency(shs)
	for _, sh := range shs {
		rt.bindShardMetrics(sh)
	}
	top := rt.admit(shs)
	log.Printf("admin: grew cluster to %d shards (epoch %d)", len(top.Members), top.Epoch)
	writeJSON(w, http.StatusOK, top)
}

// handleAdminDrain serves POST /admin/shards/{id}/drain: migrate the
// shard's store to the surviving members' rendezvous slices, then
// remove it from the topology (and, in supervised clusters, stop its
// process for good).
func (rt *Router) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		service.WriteError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, r, http.StatusBadRequest, "shard id %q is not an integer", r.PathValue("id"))
		return
	}
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	vw := rt.view()
	src, ok := vw.byID[id]
	if !ok {
		service.WriteError(w, r, http.StatusNotFound, "no shard %d in the current topology", id)
		return
	}
	if len(vw.shards) == 1 {
		service.WriteError(w, r, http.StatusBadRequest, "cannot drain the last shard")
		return
	}
	remaining := make([]int, 0, len(vw.ids)-1)
	for _, other := range vw.ids {
		if other != id {
			remaining = append(remaining, other)
		}
	}

	// Pass 1, strict, under the OLD topology: the shard still serves
	// while its store is copied out, and any failure aborts with the
	// membership untouched.
	moved, seen, err := rt.migrate(r.Context(), vw, src, remaining, nil)
	if err != nil {
		service.WriteError(w, r, http.StatusBadGateway, "draining shard %d: %v (topology unchanged)", id, err)
		return
	}
	top := rt.remove(id)

	// Pass 2, best-effort, after the swap: requests that raced pass 1
	// may have written fresh results to the retiring shard; one
	// re-enumeration catches them. By now the shard is unroutable, so
	// a failure here costs a warm cache entry, never correctness —
	// every result is recomputable from its spec.
	stragglers := 0
	if n, _, err := rt.migrate(context.Background(), vw, src, remaining, seen); err != nil {
		log.Printf("admin: drain %d: straggler sweep: %v (continuing; results are recomputable)", id, err)
	} else {
		stragglers = n
	}

	src.breaker.close()
	if rt.sup != nil {
		rt.sup.Retire(id)
	}
	log.Printf("admin: drained shard %d (moved %d, stragglers %d, epoch %d)", id, moved, stragglers, top.Epoch)
	writeJSON(w, http.StatusOK, DrainReport{
		Drained: id, Moved: moved, Stragglers: stragglers,
		Epoch: top.Epoch, Topology: top.Members,
	})
}

// migrate copies every envelope src holds (minus the keys in skip) to
// its new rendezvous owner among remaining, verifying each copy, and
// returns how many moved plus the set of keys now migrated. Result
// envelopes go through the content-addressed write-back path
// (Client.StoreResult) and are verified byte-identical by re-reading the
// destination; sweep manifests go through the merge-persisting
// Client.PutManifest and are verified by presence (the destination may
// legitimately hold a union with MORE progress bits than the copy).
func (rt *Router) migrate(ctx context.Context, vw *view, src *shardState, remaining []int, skip map[string]bool) (int, map[string]bool, error) {
	enumCtx, cancel := context.WithTimeout(ctx, migrateOpTimeout)
	keys, err := src.client.EnumerateResults(enumCtx, "")
	cancel()
	if err != nil {
		return 0, nil, fmt.Errorf("enumerating: %w", err)
	}
	seen := make(map[string]bool, len(keys)+len(skip))
	for k := range skip {
		seen[k] = true
	}
	moved := 0
	for _, key := range keys {
		if skip[key] {
			continue
		}
		seen[key] = true
		// Placement is by the key's content-hash tail — the same string
		// every router path hashes: the spec hash for result keys, the
		// sweep id for manifests.
		tail, manifest, ok := service.SplitKey(key)
		if !ok {
			return moved, seen, fmt.Errorf("key %s is not a result-space key", key)
		}
		target := OwnerID(tail, remaining)
		dst := vw.byID[target]
		if manifest {
			err = migrateManifest(ctx, src, dst, tail)
		} else {
			err = migrateResult(ctx, src, dst, key)
		}
		if err != nil {
			return moved, seen, fmt.Errorf("key %s -> shard %d: %w", key, target, err)
		}
		rt.migrated.With(strconv.Itoa(src.id), strconv.Itoa(target)).Inc()
		moved++
	}
	return moved, seen, nil
}

// migrateResult moves one result envelope from src to dst and verifies
// the copy byte for byte.
func migrateResult(ctx context.Context, src, dst *shardState, key string) error {
	ctx, cancel := context.WithTimeout(ctx, migrateOpTimeout)
	defer cancel()
	body, ok, err := src.client.FetchResult(ctx, key)
	if err != nil || !ok {
		return err // !ok: evicted since enumeration; nothing to move
	}
	if err := dst.client.StoreResult(ctx, key, body, ""); err != nil {
		return err
	}
	check, ok, err := dst.client.FetchResult(ctx, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("verify: destination does not hold the key after the write")
	}
	if string(check) != string(body) {
		return fmt.Errorf("verify: destination bytes differ from the source envelope")
	}
	return nil
}

// migrateManifest moves sweep id's manifest from src to dst and
// verifies that dst then holds one.
func migrateManifest(ctx context.Context, src, dst *shardState, id string) error {
	ctx, cancel := context.WithTimeout(ctx, migrateOpTimeout)
	defer cancel()
	m, ok, err := src.client.FetchManifest(ctx, id)
	if err != nil || !ok {
		return err // !ok: evicted since enumeration; nothing to move
	}
	if err := dst.client.PutManifest(ctx, m); err != nil {
		return err
	}
	if _, ok, err = dst.client.FetchManifest(ctx, id); err == nil && !ok {
		err = fmt.Errorf("verify: destination does not hold the manifest after the write")
	}
	return err
}

// writeJSON marshals v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
