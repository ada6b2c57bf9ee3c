// Cluster membership as a value. The router used to treat "the
// cluster" as a fixed slice of backends whose indices doubled as
// shard identities; resizing was impossible without restarting, and
// any change of N silently re-labeled every metric series and header.
// Topology separates the two concerns: a shard's identity is a stable
// integer ID assigned at admission and never reused, and the current
// membership is an epoch-numbered snapshot that the router swaps
// atomically at each resize. Rendezvous scores hash against the
// stable ID (not the slice position), so membership order is
// irrelevant to placement and a member can leave without renaming
// anyone else's keys.

package shard

import "sort"

// Member is one cluster member: a stable shard ID bound to a backend
// base URL. The ID is assigned when the shard is admitted and is
// never reused for a different backend within a router's lifetime, so
// metric series, X-Shard headers and failover tags keyed by it stay
// meaningful across resizes.
type Member struct {
	// ID is the shard's stable identity; rendezvous placement hashes
	// against it.
	ID int `json:"id"`
	// Addr is the backend's base URL.
	Addr string `json:"addr"`
}

// Topology is a versioned snapshot of cluster membership. Epoch
// increments on every membership change (grow or drain), so two
// observers can order the snapshots they hold; Members is the current
// member set in admission order. A Topology is a value — handlers
// snapshot it once per request and route against that snapshot, so a
// mid-request resize never splits one request across two views.
type Topology struct {
	// Epoch numbers this membership version, starting at 1 for the
	// boot-time set and incrementing on every admit or drain.
	Epoch int64 `json:"epoch"`
	// Members is the current member set in admission order.
	Members []Member `json:"members"`
}

// IDs returns the stable shard IDs of every member, in membership
// order — the id set OwnerID and RankIDs place against.
func (t Topology) IDs() []int {
	ids := make([]int, len(t.Members))
	for i, m := range t.Members {
		ids[i] = m.ID
	}
	return ids
}

// OwnerID returns the stable shard ID among ids that owns the given
// spec content hash, by rendezvous (highest-random-weight) hashing:
// score every member against the hash, pick the maximum. Properties
// the deployment leans on:
//
//   - Deterministic: a pure function of (hash, ids), so the assignment
//     survives router restarts and is computable by any client — the
//     smoke harness predicts which store directory a variant lands in.
//   - Order-free: scores hash against the stable ID, so the result is
//     independent of the order of ids.
//   - Minimal disruption: admitting a member only moves the keys the
//     new member wins, and removing one moves only the keys it owned —
//     everything else keeps its owner (and its warm store).
//
// An empty ids returns -1.
func OwnerID(hash string, ids []int) int {
	if len(ids) == 0 {
		return -1
	}
	best, bestScore := ids[0], rendezvousScore(hash, ids[0])
	for _, id := range ids[1:] {
		score := rendezvousScore(hash, id)
		if score > bestScore || (score == bestScore && id < best) {
			best, bestScore = id, score
		}
	}
	return best
}

// RankIDs returns ids ordered by descending rendezvous score for the
// given hash: RankIDs(h, ids)[0] == OwnerID(h, ids), and the rest is
// the deterministic failover order under the current membership.
// Because the scores are a pure function of (hash, id), every router
// replica computes the same preference list, so "the next-ranked live
// shard" is a well-defined cluster-wide notion without any
// coordination. Results are content-addressed and bit-reproducible,
// which is what makes walking this list semantically free: any live
// shard computes the byte-identical answer, the owner merely holds the
// warm cache.
func RankIDs(hash string, ids []int) []int {
	order := make([]int, len(ids))
	copy(order, ids)
	scores := make(map[int]uint64, len(ids))
	for _, id := range ids {
		scores[id] = rendezvousScore(hash, id)
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := scores[order[a]], scores[order[b]]
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b] // deterministic on (improbable) ties
	})
	return order
}
