// Sweep manifests: the named-checkpoint layer under POST /sweep.
//
// Every sweep has a deterministic identity — the SHA-256 of its base
// spec's content hash, name prefix, canonical model and axes — and a
// compact manifest (per-variant done/failed bitmaps) persisted
// through the SAME cache path as simulation results: appended store
// records, checksum-verified reads, corruption degrades to an honest
// miss. The manifest is observability and resume metadata,
// never an optimization the correctness of a stream depends on: a
// resume replays every variant past the client's high-water mark
// (done ones as cache hits), so a stale, torn or missing manifest can
// lose bookkeeping but can never silently shrink a grid.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
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
	// Hashes lists the content hashes of the deduplicated variants in
	// walk order (ascending Index), sha256.Size raw bytes each, one
	// base64 string on the wire. The save that closes a complete walk
	// with no failed variant records it, while the manifest body stays
	// under MaxBodyBytes; a stream or analysis then replays the grid
	// from it instead of walking (sweep.Replay). Accept drops a list
	// that does not describe exactly the Done set.
	Hashes []byte `json:"hashes,omitempty"`
}

// decodeManifest parses body as the manifest of sweep id — the one
// reader of an externally-sourced manifest: the store tiers, a PUT
// body, a cluster fetch (Client.FetchManifest). A status document
// decodes too; its derived counts are dropped, never trusted.
func decodeManifest(body []byte, id string) (*SweepManifest, error) {
	m := new(SweepManifest)
	rest, list, cut := cutList(body)
	if err := json.Unmarshal(rest, m); err != nil {
		return nil, fmt.Errorf("parsing manifest: %w", err)
	}
	if cut {
		m.Hashes = list
	}
	if !m.Accept(id) {
		return nil, fmt.Errorf("manifest does not describe sweep %q", id)
	}
	return m, nil
}

// cutList takes a manifest's list out of its body before encoding/json
// reads the rest: a 4,080-variant list is 170 KB of base64 that
// json.Unmarshal would scan twice and copy once, three times on every
// replay through a cluster. It finds the body's one top-level "hashes"
// member whose value is a string of base64 characters only, and returns
// the body without that member and the decoded list. A JSON lexer's
// string boundaries do not depend on the grammar, so the member it cuts
// is a member wherever json.Unmarshal would read one, and the rest
// parses exactly when the body does. cut=false — no such member, a
// second key that encoding/json would also match to the field (another
// case, an escaped key), a value it would not take as it is — hands the
// whole body to json.Unmarshal.
func cutList(body []byte) (rest, list []byte, cut bool) {
	start, end := -1, -1 // the member's bytes, its separating comma included
	depth := 0
	afterOpenOrComma := false // the last token at depth 1 was '{' or ','
	for i := 0; i < len(body); i++ {
		switch c := body[i]; c {
		case '{', '[':
			depth++
			afterOpenOrComma = depth == 1
		case '}', ']':
			depth--
			afterOpenOrComma = false
		case ',':
			afterOpenOrComma = depth == 1
		case '"':
			j := i + 1 // the string runs to the first unescaped quote
			for j < len(body) && body[j] != '"' {
				if body[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(body) {
				return body, nil, false
			}
			key := body[i+1 : j]
			isKey := depth == 1 && afterOpenOrComma
			afterOpenOrComma = false
			if !isKey || !bytes.EqualFold(key, []byte("hashes")) && bytes.IndexByte(key, '\\') < 0 {
				i = j
				continue
			}
			if start >= 0 || string(key) != "hashes" {
				return body, nil, false
			}
			// "hashes" : "<base64>"
			k := skipSpace(body, j+1)
			if k >= len(body) || body[k] != ':' {
				return body, nil, false
			}
			if k = skipSpace(body, k+1); k >= len(body) || body[k] != '"' {
				return body, nil, false
			}
			v := k + 1
			for v < len(body) && isBase64[body[v]] {
				v++
			}
			if v >= len(body) || body[v] != '"' {
				return body, nil, false
			}
			raw := body[k+1 : v]
			list = make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
			n, err := base64.StdEncoding.Decode(list, raw)
			if err != nil {
				return body, nil, false
			}
			list, start, end = list[:n], i, v+1
			// Take the comma that separates the member from its neighbour:
			// the one before it, or, for the first member, the one after.
			if p := lastNonSpace(body, i); body[p] == ',' {
				start = p
			} else if q := skipSpace(body, end); q < len(body) && body[q] == ',' {
				end = q + 1
			}
			i = v
		}
	}
	if start < 0 {
		return body, nil, false
	}
	return append(append(make([]byte, 0, len(body)-(end-start)), body[:start]...), body[end:]...), list, true
}

// isBase64 marks the bytes of the standard base64 alphabet and its
// padding.
var isBase64 = func() (t [256]bool) {
	for _, c := range []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=") {
		t[c] = true
	}
	return t
}()

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// lastNonSpace returns the index of the last byte before i that is not
// JSON whitespace.
func lastNonSpace(b []byte, i int) int {
	for i--; i > 0 && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r'); i-- {
	}
	return i
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
	// The list stands only for a complete, failure-free sweep: one
	// digest per variant, and the variants are exactly the Done set.
	if m.Variants == 0 || len(m.Hashes) != sha256.Size*m.Variants || m.Variants != m.Done.Count() ||
		m.Variants > m.Total || m.Failed.Count() != 0 {
		m.Hashes = nil
	}
	return true
}

// maxListBytes bounds the hashes a walk collects for its manifest: the
// raw bytes whose base64 could still fit a PUT /sweep/{id} body.
const maxListBytes = MaxBodyBytes / 4 * 3

// recordHashes lists hashes on m when the manifest's body, list
// included, stays under MaxBodyBytes — the bound on the PUT /sweep/{id}
// body a router's checkpoint travels in — and leaves m without a list
// otherwise: a larger grid replays by walking.
func (m *SweepManifest) recordHashes(hashes []byte) {
	m.Hashes = nil
	body, err := json.Marshal(m)
	if err == nil && len(body)+len(`,"hashes":""`)+base64.StdEncoding.EncodedLen(len(hashes)) < MaxBodyBytes {
		m.Hashes = hashes
	}
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
// cache without counting a hit anywhere: a manifest read is
// bookkeeping, not a request for a result. Corruption at any layer —
// store checksum, JSON shape, id mismatch, bitmap size — degrades to
// (nil, false), which the handlers surface as 404: the client's
// honest fallback is re-POSTing the sweep, whose deterministic id
// rebuilds the same manifest with a full re-enumeration (mostly cache
// hits).
func (s *Server) loadManifest(id string) (*SweepManifest, bool) {
	body, ok := s.peek(manifestKey(id))
	if !ok {
		return nil, false
	}
	m, err := decodeManifest(body, id)
	return m, err == nil
}

// checkpointManifest persists m, first merging the stored copy's
// progress bits (concurrent streams of the same sweep — or a router
// write-through racing a local stream — union instead of clobbering
// each other). The store write is one append: a SIGKILL mid-append
// leaves a torn record that the next Open's rescan cuts off, and the
// previous manifest record still serves.
func (s *Server) checkpointManifest(m *SweepManifest) {
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	if prev, ok := s.loadManifest(m.ID); ok && prev.Total == m.Total {
		m.Done.Or(prev.Done)
		m.Failed.Or(prev.Failed)
		if m.Variants == 0 {
			m.Variants = prev.Variants
		}
		// A save without a list (every checkpoint, a replay's final
		// save) keeps the stored one; two lists that disagree are both
		// dropped, and the next complete walk records a fresh one.
		switch {
		case m.Hashes == nil:
			m.Hashes = prev.Hashes
		case prev.Hashes != nil && !bytes.Equal(m.Hashes, prev.Hashes):
			m.Hashes = nil
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
// walks: every key with that prefix (empty prefix: all keys) that the
// worker's cache holds, as {"keys":[...]}, most-recent-first. Exact
// fetches still require a well-formed result key.
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
		body, ok := s.lookup(key, true)
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

// enumerateKeys lists every key this shard's cache holds under
// prefix, most-recent-first: what a drain must migrate. A key SplitKey
// rejects — a stored one of another model revision — is left out: it
// is never read again, so it is not moved either.
func (s *Server) enumerateKeys(prefix string) []string {
	var held []string
	if s.disk != nil {
		held = s.disk.Enumerate(prefix)
	} else {
		held = s.cache.Keys()
	}
	keys := []string{}
	for _, k := range held {
		if _, _, ok := SplitKey(k); ok && strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	return keys
}
