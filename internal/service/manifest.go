// Sweep manifests: the named-checkpoint layer under POST /sweep.
//
// Every sweep has a deterministic identity — the SHA-256 of its base
// spec's content hash, name prefix, canonical model and axes — and a
// compact manifest (per-variant done/failed bitmaps) persisted
// through the SAME two-tier cache path as simulation results: atomic
// disk writes, checksum-verified reads, corruption degrades to an
// honest miss. The manifest is observability and resume metadata,
// never an optimization the correctness of a stream depends on: a
// resume replays every variant past the client's high-water mark
// (done ones as cache hits), so a stale, torn or missing manifest can
// lose bookkeeping but can never silently shrink a grid.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/spec"
	"repro/internal/sweep"
)

// Headers of the checkpointed-sweep protocol.
const (
	// SweepIDHeader carries the sweep's deterministic identity on
	// /sweep, /sweep/analyze and resume responses.
	SweepIDHeader = "X-Sweep-ID"
	// ResultKeyHeader names the store key of a result body POSTed to
	// /results (the router's stolen-variant write-back).
	ResultKeyHeader = "X-Result-Key"
	// StolenHeader tags a write-back with "owner->thief" shard
	// indices — the router's work-stealing audit trail.
	StolenHeader = "X-Stolen"
)

// SweepID derives the sweep's deterministic identity: a SHA-256 over
// the base spec's content hash, the name prefix, the canonical model
// and the axes. Every tier computes it the same way from the same
// request, so a client can POST /sweep against a single process,
// lose the connection, and resume the same id against a cluster.
func SweepID(req SweepRequest, byName map[string]spec.Spec) (string, error) {
	base, err := resolveSweepBase(req, byName)
	if err != nil {
		return "", err
	}
	baseHash, err := base.Hash()
	if err != nil {
		return "", err
	}
	model, err := sweepModel(req.Model)
	if err != nil {
		return "", err
	}
	canon := strings.ToLower(model.core.String())
	if model.Compare {
		canon = "compare"
	}
	doc, err := json.Marshal(struct {
		V     int         `json:"v"`
		Base  string      `json:"base"`
		Name  string      `json:"name,omitempty"`
		Model string      `json:"model"`
		Axes  []SweepAxis `json:"axes"`
	}{1, baseHash, req.Name, canon, req.Axes})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}

// SweepManifest is the persisted checkpoint of one sweep: the request
// that defines it (so a bare id can be resumed or re-analyzed with no
// grid in hand) plus per-variant progress bitmaps indexed by the
// variant's Cartesian coordinate. At 100k variants the two bitmaps
// cost ~25 KB — a checkpoint is one small store write, not a row log.
type SweepManifest struct {
	// Version guards the wire shape; readers reject what they don't
	// speak rather than misread progress.
	Version int `json:"version"`
	// ID is the sweep's deterministic identity (SweepID of Request).
	ID string `json:"id"`
	// Request is the defining sweep request, verbatim.
	Request SweepRequest `json:"request"`
	// Total is the grid's full Cartesian product — the bitmaps' index
	// space.
	Total int `json:"total"`
	// Variants is the deduplicated variant count, recorded after a
	// complete walk (0 until then). Done+Failed reach it exactly when
	// every distinct variant has a row.
	Variants int `json:"variants,omitempty"`
	// Done marks variants whose result row was emitted successfully.
	Done *sweep.Bitset `json:"done"`
	// Failed marks variants whose last row carried an error. A later
	// success clears the bit.
	Failed *sweep.Bitset `json:"failed"`
}

// decodeManifest parses body as the manifest of sweep id — the one
// reader of an externally-sourced manifest: the store tiers, a PUT
// body, a cluster fetch (Client.FetchManifest). A status document
// decodes too; its derived counts are dropped, never trusted.
func decodeManifest(body []byte, id string) (*SweepManifest, error) {
	m := new(SweepManifest)
	if err := json.Unmarshal(body, m); err != nil {
		return nil, fmt.Errorf("parsing manifest: %w", err)
	}
	if !m.Accept(id) {
		return nil, fmt.Errorf("manifest does not describe sweep %q", id)
	}
	return m, nil
}

// Accept reports whether m is a well-formed manifest of sweep id.
// The Total bound comes first because the bitmaps are sized from it: a
// manifest claiming a 10^11-point grid must be refused, not allocated.
// Bitmaps that disagree with the manifest's own grid size are reset: a
// shape mismatch means the bits describe some other grid, and claiming
// zero progress is honest where claiming theirs is not.
func (m *SweepManifest) Accept(id string) bool {
	if m.Version != 1 || m.ID != id || m.Total <= 0 || m.Total > sweep.MaxVariants {
		return false
	}
	if m.Done.Len() != m.Total {
		m.Done = sweep.NewBitset(m.Total)
	}
	if m.Failed.Len() != m.Total {
		m.Failed = sweep.NewBitset(m.Total)
	}
	return true
}

// SweepStatus is the body of GET /sweep/{id}: the manifest plus
// derived progress counts.
type SweepStatus struct {
	SweepManifest
	// DoneCount and FailedCount are the bitmap populations.
	DoneCount   int `json:"done_count"`
	FailedCount int `json:"failed_count"`
	// Complete reports that every deduplicated variant has a row. It
	// stays false until some stream has walked the full grid once
	// (Variants is unknown before that).
	Complete bool `json:"complete"`
}

// Status derives the wire status from the manifest.
func (m *SweepManifest) Status() SweepStatus {
	done, failed := m.Done.Count(), m.Failed.Count()
	return SweepStatus{
		SweepManifest: *m,
		DoneCount:     done,
		FailedCount:   failed,
		Complete:      m.Variants > 0 && done+failed >= m.Variants,
	}
}

// loadManifest reads and validates the manifest for id from the
// cache tiers. Corruption at any layer — store checksum, JSON shape,
// id mismatch, bitmap size — degrades to (nil, false), which the
// handlers surface as 404: the client's honest fallback is re-POSTing
// the sweep, whose deterministic id rebuilds the same manifest with a
// full re-enumeration (mostly cache hits).
func (s *Server) loadManifest(id string) (*SweepManifest, bool) {
	body, ok := s.lookup(manifestKey(id))
	if !ok {
		return nil, false
	}
	m, err := decodeManifest(body, id)
	return m, err == nil
}

// checkpointManifest persists m, first merging the stored copy's
// progress bits (concurrent streams of the same sweep — or a router
// write-through racing a local stream — union instead of clobbering
// each other). The store write is atomic (tmp+rename), so a SIGKILL
// mid-checkpoint leaves the previous manifest intact, never a torn
// one.
func (s *Server) checkpointManifest(m *SweepManifest) {
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	if prev, ok := s.loadManifest(m.ID); ok && prev.Total == m.Total {
		m.Done.Or(prev.Done)
		m.Failed.Or(prev.Failed)
		if m.Variants == 0 {
			m.Variants = prev.Variants
		}
	}
	// A success anywhere outranks a failure anywhere: a variant that
	// failed in one stream and completed in another is done.
	m.Failed.AndNot(m.Done)
	body, err := json.Marshal(m)
	if err != nil {
		return
	}
	s.persist(manifestKey(m.ID), body)
	s.sweepCheckpoints.Inc()
}

// handleSweepStatus serves /sweep/{id}: GET is the engine's status
// document; PUT (the router's checkpoint write-through) merge-persists
// a manifest into this shard's store.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.sweeps.HandleStatus(w, r)
	case http.MethodPut:
		id := r.PathValue("id")
		raw, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes))
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		m, err := decodeManifest(raw, id)
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, "%v", err)
			return
		}
		s.checkpointManifest(m)
		w.WriteHeader(http.StatusNoContent)
	default:
		WriteError(w, r, http.StatusMethodNotAllowed, "GET or PUT required")
	}
}

// handleResults serves the router's stolen-variant side channel.
// POST is the write-back: the body is a complete result envelope
// (the exact bytes a /run or /compare of that spec would answer) and
// X-Result-Key names the store key — the same content-addressed key
// a local simulation would have persisted under, so ownership-based
// cache placement holds even when another shard did the work.
// GET ?key=<result-key> is the probe: before a thief re-simulates a
// queued variant it asks whether the owner already holds the bytes —
// 200 with X-Cache: hit when it does, 404 when the work is genuinely
// cold. GET ?prefix=<p> is the enumeration the router's drain path
// walks: every stored key with that prefix (empty prefix: all keys),
// as {"keys":[...]}, disk keys most-recent-first followed by any
// memory-only stragglers. Exact fetches still require a well-formed
// result key.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Query().Has("prefix") {
		body, err := json.Marshal(struct {
			Keys []string `json:"keys"`
		}{Keys: s.enumerateKeys(r.URL.Query().Get("prefix"))})
		if err != nil {
			WriteError(w, r, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, body)
		return
	}
	if r.Method == http.MethodGet {
		key := r.URL.Query().Get("key")
		if !ValidResultKey(key) {
			WriteError(w, r, http.StatusBadRequest, "key %q is not a result key", key)
			return
		}
		body, ok := s.lookup(key)
		if !ok {
			WriteError(w, r, http.StatusNotFound, "no stored result under %q", key)
			return
		}
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, http.StatusOK, body)
		return
	}
	if r.Method != http.MethodPost {
		WriteError(w, r, http.StatusMethodNotAllowed, "GET or POST required")
		return
	}
	key := r.Header.Get(ResultKeyHeader)
	if !ValidResultKey(key) {
		WriteError(w, r, http.StatusBadRequest, "%s %q is not a result key", ResultKeyHeader, key)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes))
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) == 0 || !json.Valid(body) {
		WriteError(w, r, http.StatusBadRequest, "body is not a JSON result")
		return
	}
	s.persist(key, body)
	s.stolenResults.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// enumerateKeys lists every key this shard holds under prefix: the
// disk store's keys most-recent-first, then any keys only the memory
// cache holds (a store-less shard, or a race where the memory tier
// runs ahead). The union is what a drain must migrate — missing a
// memory-only key would silently cool a result its owner had warm.
func (s *Server) enumerateKeys(prefix string) []string {
	keys := []string{}
	seen := map[string]struct{}{}
	if s.disk != nil {
		for _, k := range s.disk.Enumerate(prefix) {
			keys = append(keys, k)
			seen[k] = struct{}{}
		}
	}
	for _, k := range s.cache.Keys() {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if _, ok := seen[k]; !ok {
			keys = append(keys, k)
		}
	}
	return keys
}
