// Package shard scales the simulation service across processes
// without sharing anything. Every result in this system is fully
// determined by its `endpoint:model:spec-hash` cache key (the
// simulations are bit-reproducible), so work partitions perfectly: a
// frontend router assigns each workload spec to exactly one backend
// worker process by rendezvous-hashing the spec's content hash, and
// that backend's memory LRU and disk store hold that spec's results —
// and only that backend's. No coordination, no replication, no cache
// coherence: a spec's owner is a pure function of its hash and the
// shard count, stable across restarts, so a resharded cluster keeps
// serving byte-identical replays from whichever stores already hold
// them.
//
// The router (router.go) owns the public API — /run, /compare,
// /sweep and /sweep/analyze are fanned out per spec, /sweep merging
// the per-shard completion streams into one NDJSON stream with a
// terminal summary row and /sweep/analyze aggregating router-side
// into the same analysis document a single process produces — and the
// supervisor (supervisor.go) spawns and babysits local backend
// processes for `simd -shards N`.
package shard

import "strconv"

// rendezvousScore is FNV-1a over "hash/shard-id" — the score OwnerID
// and RankIDs (topology.go) place by. FNV is not cryptographic, but the
// inputs are already SHA-256 hex — uniform by construction — so the
// 64-bit mix only has to break ties between shards, not resist
// adversaries.
func rendezvousScore(hash string, index int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(hash); i++ {
		h ^= uint64(hash[i])
		h *= prime64
	}
	h ^= '/'
	h *= prime64
	for _, c := range strconv.Itoa(index) {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
