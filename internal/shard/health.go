// The router's aggregated GET /healthz: every backend probed
// concurrently, per-shard liveness and circuit state next to cluster
// totals, under one topology snapshot.
package shard

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/sched"
	"repro/internal/service"
)

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
		service.WriteError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, rt.FetchClusterHealth(r.Context()))
}
