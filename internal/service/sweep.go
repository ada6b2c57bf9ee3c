// POST /sweep: parameter-grid sweeps with per-row streaming.
//
// The request names a base workload (inline spec or library scenario)
// plus axis descriptors; the grid engine (internal/sweep) expands
// them into a deduplicated variant list, and the response streams one
// NDJSON row per variant as its simulation completes — not when the
// whole grid is done. Every variant consults the full cache path
// (memory LRU, disk store, in-flight coalescing) before costing a
// simulation, and runs through the same weighted-fair scheduler as
// /run and /compare — under the Batch class (unless X-Class says
// otherwise), so a deep sweep fills its own class queue while
// interactive requests keep their weighted share of the workers.
// When the batch queue saturates, a sweep row waits out the BATCH
// class's Retry-After and retries instead of failing the stream, so
// sweeps apply backpressure to themselves rather than starving
// interactive requests of their 503 signal.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// DefaultMaxSweepVariants bounds one sweep request's full Cartesian
// product when Options.MaxSweepVariants is unset (the -max-sweep-
// variants flag). The engine's own hard bound (sweep.MaxVariants) is
// an upper limit on top. Grids this size are processed in bounded
// chunks (sweepChunkSize variants in memory at a time), so the cap
// protects simulation budget, not process memory.
const DefaultMaxSweepVariants = 100_000

// sweepChunkSize is how many expanded variants a sweep holds in
// memory at once: the grid is walked lazily and resolved chunk by
// chunk, so a 100k-variant sweep costs O(chunk), not O(grid).
const sweepChunkSize = 2048

// manifestCheckpointRows is how many emitted rows ride between
// manifest checkpoints. Small enough that a killed stream loses
// little progress, large enough that checkpoint writes stay noise
// next to simulation cost.
const manifestCheckpointRows = 256

// SweepRequest is the body of POST /sweep — the wire contract shared
// with frontends (the shard router decodes one to partition its grid).
// Exactly one of Base and Scenario selects the base workload the axes
// are applied to.
type SweepRequest struct {
	// Base is an inline base workload spec.
	Base *spec.Spec `json:"base,omitempty"`
	// Scenario names a base spec from the built-in library.
	Scenario string `json:"scenario,omitempty"`
	// Name prefixes variant names (default: the base spec's name).
	Name string `json:"name,omitempty"`
	// Model selects what each variant runs: "tl" (default), "rtl", or
	// "compare" (both models, one accuracy row per variant).
	Model string `json:"model,omitempty"`
	// Axes are the swept dimensions (sweep.Apply parameter names).
	Axes []SweepAxis `json:"axes"`
}

// SweepAxis is one wire-form axis: a parameter name and its values.
type SweepAxis struct {
	Param  string `json:"param"`
	Values []any  `json:"values"`
}

// SweepRow is one NDJSON line of the /sweep response, emitted when
// the variant's result is ready. Result carries the exact cached body
// of the variant's /run or /compare response (so a sweep row and a
// direct request are byte-identical where they overlap); Cache is the
// row's disposition — "hit", "coalesced" or "miss" — and is omitted
// on error rows (Error set, no result to attribute).
type SweepRow struct {
	Index  int             `json:"index"`
	Name   string          `json:"name"`
	Hash   string          `json:"hash"`
	Params map[string]any  `json:"params"`
	Cache  string          `json:"cache,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// SweepSummary is the terminal NDJSON line of a completed /sweep
// stream: Done is always true, Rows counts the data rows emitted
// before it and Errors how many of those carried an error field. A
// stream that ends *without* this line was truncated — the connection
// dropped, the handler died, a shard vanished — and the rows received
// must not be mistaken for the whole grid. (Data rows never set Done,
// so the two line shapes cannot be confused.)
type SweepSummary struct {
	Done   bool `json:"done"`
	Rows   int  `json:"rows"`
	Errors int  `json:"errors"`
}

// RowWriter streams NDJSON lines over an HTTP response and coalesces
// their flushes. Write buffers a line; Flush pushes what is buffered to
// the client. Both sweep tiers flush whenever no further row is
// immediately ready and after the terminal line — never per row — so
// a burst of ready rows costs one write to the socket, and no row ever
// waits on a row that is not there yet.
type RowWriter struct {
	enc     *json.Encoder
	flusher http.Flusher
	dirty   bool
}

// NewRowWriter wraps a response whose status line is already written.
// The headers count as unflushed: the first Flush pushes them out even
// before any row exists.
func NewRowWriter(w http.ResponseWriter) *RowWriter {
	flusher, _ := w.(http.Flusher)
	return &RowWriter{enc: json.NewEncoder(w), flusher: flusher, dirty: true}
}

// Write encodes one line. A client that hung up makes the encode fail;
// the stream's owner learns that from its request context, not here.
func (rw *RowWriter) Write(line any) {
	_ = rw.enc.Encode(line)
	rw.dirty = true
}

// Flush pushes the lines written since the last Flush to the client.
func (rw *RowWriter) Flush() {
	if rw.dirty && rw.flusher != nil {
		rw.flusher.Flush()
	}
	rw.dirty = false
}

// resolveSweepBase picks the base workload: an inline spec or a
// library-scenario name looked up in byName, exactly one of them.
func resolveSweepBase(req SweepRequest, byName map[string]spec.Spec) (spec.Spec, error) {
	switch {
	case req.Base != nil && req.Scenario != "":
		return spec.Spec{}, errors.New("request has both base and scenario; send one")
	case req.Base != nil:
		return *req.Base, nil
	case req.Scenario != "":
		found, ok := byName[req.Scenario]
		if !ok {
			return spec.Spec{}, fmt.Errorf("unknown scenario %q", req.Scenario)
		}
		return found, nil
	}
	return spec.Spec{}, errors.New("request needs a base spec or a scenario name")
}

// ResolveSweepGrid is the ONE place a sweep request becomes an engine
// grid: it resolves the base workload, builds the axes, sizes the
// full Cartesian product against max (<= 0: DefaultMaxSweepVariants)
// and pre-validates every axis value against a clone of the base —
// all without expanding a single variant. The backend handler and the
// shard router both call it, so the two tiers of a deployment accept
// exactly the same grids and enforce exactly the same cap; the old
// duplicated per-tier checks could (and briefly did) drift. Returns
// the grid and the product size.
func ResolveSweepGrid(req SweepRequest, byName map[string]spec.Spec, max int) (sweep.Grid, int, error) {
	base, err := resolveSweepBase(req, byName)
	if err != nil {
		return sweep.Grid{}, 0, err
	}
	grid := sweep.Grid{Name: req.Name, Base: base}
	for _, ax := range req.Axes {
		vals := make([]sweep.Value, len(ax.Values))
		for i, v := range ax.Values {
			vals[i] = sweep.Value{V: v}
		}
		grid.Axes = append(grid.Axes, sweep.Axis{Param: ax.Param, Values: vals})
	}
	total, err := grid.Total()
	if err != nil {
		return grid, 0, err
	}
	if max <= 0 {
		max = DefaultMaxSweepVariants
	}
	if total > max {
		return grid, 0, fmt.Errorf("grid expands to %d variants (max %d)", total, max)
	}
	// Pre-flight every axis value against the base: an unknown
	// parameter or a mistyped value fails the request with a 400
	// before the stream commits, exactly as full expansion used to,
	// at O(axis values) cost. Combination-dependent failures (legal
	// values that conflict mid-grid) surface later as error rows.
	for _, ax := range grid.Axes {
		for _, v := range ax.Values {
			sp := base.Clone()
			if err := sweep.Apply(&sp, ax.Param, v.V); err != nil {
				return grid, 0, fmt.Errorf("sweep: axis %q value %v: %w", ax.Param, v.V, err)
			}
		}
	}
	return grid, total, nil
}

// ExpandSweepRequest resolves and fully materializes the request's
// deduplicated variant list, enforcing max (<= 0:
// DefaultMaxSweepVariants). Streaming paths walk the grid in chunks
// instead; this remains for callers that need the whole list (tests,
// offline tools).
func ExpandSweepRequest(req SweepRequest, byName map[string]spec.Spec, max int) ([]sweep.Variant, error) {
	grid, _, err := ResolveSweepGrid(req, byName, max)
	if err != nil {
		return nil, err
	}
	return grid.Expand()
}

// sweepModel resolves the request's model selector.
func sweepModel(name string) (model core.Model, compare bool, err error) {
	switch name {
	case "", "tl", "tlm":
		return core.TLM, false, nil
	case "rtl":
		return core.RTL, false, nil
	case "compare":
		return core.TLM, true, nil
	}
	return 0, false, fmt.Errorf("unknown model %q (want tl, rtl or compare)", name)
}

// handleSweep serves POST /sweep.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req SweepRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	id, err := s.requestIdent(r, sched.Batch)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	s.streamSweep(w, r, req, -1, id)
}

// streamSweep validates the grid and streams its NDJSON rows — the
// shared engine of POST /sweep (after = -1: the whole grid) and GET
// /sweep/{id}/resume (after = the client's high-water mark). Variants
// execute under rid (normally the caller's tenant in the Batch
// class). It checkpoints a sweep manifest as rows complete, so the
// sweep's identity and per-variant progress survive this stream's
// death.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, req SweepRequest, after int, rid ident) {
	grid, total, err := ResolveSweepGrid(req, s.scenarioByName, s.maxSweepVariants)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if err := CheckGridCycleCaps(grid, s.checkCycleCap); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	model, compare, err := sweepModel(req.Model)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := SweepID(req, s.scenarioByName)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	man := s.loadOrNewManifest(id, req, total)

	// The stream is committed: from here, per-variant failures are
	// rows with an error field, not HTTP errors.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Variants", strconv.Itoa(total))
	w.Header().Set(SweepIDHeader, id)
	w.WriteHeader(http.StatusOK)
	out := NewRowWriter(w)
	// Push the headers out now: on an all-miss grid no row may flush
	// for a while, and a client (or the shard router) pacing itself on
	// X-Sweep-Variants must not block on a header buffered server-side.
	out.Flush()
	emitted, errored, sinceCheckpoint := 0, 0, 0
	emit := func(row SweepRow) {
		out.Write(row)
		s.sweepRows.Inc()
		emitted++
		if row.Error != "" {
			errored++
			man.Failed.Set(row.Index)
		} else {
			man.Done.Set(row.Index)
			man.Failed.Clear(row.Index)
		}
		if sinceCheckpoint++; sinceCheckpoint >= manifestCheckpointRows {
			sinceCheckpoint = 0
			out.Flush() // about to wait on the store: written rows go first
			s.checkpointManifest(man)
		}
	}

	// Client gone mid-grid: no terminal row — a truncated stream IS
	// truncated, and saying otherwise to a half-closed socket helps
	// nobody. The final checkpoint still runs: progress made before
	// the disconnect is exactly what a resume wants to skip.
	distinct, complete := s.collectGrid(r.Context(), grid, after, model, compare, rid, emit, out.Flush)
	if complete {
		// The terminal summary row runs only when every variant
		// produced a row — nothing here fakes completion.
		out.Write(SweepSummary{Done: true, Rows: emitted, Errors: errored})
		// A completed walk knows the deduplicated variant count even
		// when it only EMITTED a suffix — the walk itself always
		// enumerates from index 0 — so a resume that reaches the end
		// can mark the sweep complete just like the initial stream.
		man.Variants = distinct
	}
	out.Flush()
	s.checkpointManifest(man)
}

// collectGrid resolves the grid in bounded chunks while the grid
// engine expands the next chunk in the background (sweep.WalkChunks):
// at most two chunks of sweepChunkSize expanded variants exist at a
// time, so grid memory stays O(chunk) and the workers never idle
// behind a serial walk. Variants with Index <= after are skipped (their
// rows streamed before a disconnect); build failures on individual
// grid points become error rows, not stream deaths. idle runs whenever
// no further row is immediately ready — before waiting on a
// simulation, and at the end of every chunk. Returns the deduplicated
// variant count of the FULL walk (valid only when complete) and whether
// the walk finished before ctx ended.
func (s *Server) collectGrid(ctx context.Context, grid sweep.Grid, after int, model core.Model, compare bool, id ident, emit func(SweepRow), idle func()) (distinct int, complete bool) {
	distinct, err := grid.WalkChunks(ctx, after, sweepChunkSize, func(c sweep.Chunk) error {
		for _, f := range c.Failed {
			emit(SweepRow{Index: f.Variant.Index, Name: f.Variant.Spec.Name, Params: f.Variant.Params, Error: f.Err.Error()})
		}
		if !s.collectRows(ctx, c.Variants, model, compare, id, emit, idle) {
			return context.Canceled
		}
		idle()
		return nil
	})
	return distinct, err == nil
}

// collectRows resolves one chunk of variants through the shared
// cache/singleflight/pool path and invokes emit — always from this
// goroutine — once per variant in completion order. It is the one
// chunk-resolution engine behind /sweep, /sweep/{id}/resume and both
// analyze endpoints (via collectGrid), so none of them can diverge
// on caching, backpressure or failure semantics. Returns false when
// ctx ended first — the row set is then a subset and must not be
// read as the whole chunk.
func (s *Server) collectRows(ctx context.Context, variants []sweep.Variant, model core.Model, compare bool, id ident, emit func(SweepRow), idle func()) bool {
	// First pass: serve every memory-cached variant immediately, so a
	// warm sweep streams at memory speed no matter how busy the pool
	// is, and collect the rest for the workers. Disk-held variants
	// resolve in the worker pass — executeOnce's lookup finds them
	// without touching the pool, so they also stream while it is
	// saturated, and the disk tier is probed exactly once per variant.
	var pending []sweep.Variant
	for _, v := range variants {
		if body, ok := s.lookupMemory(s.sweepKey(v, model, compare)); ok {
			emit(sweepRow(v, "hit", http.StatusOK, body))
			continue
		}
		pending = append(pending, v)
	}

	// Second pass: resolve the misses concurrently (bounded by the
	// worker count — the pool's queue bound stays the real limiter)
	// and hand rows over in completion order.
	if len(pending) == 0 {
		return true
	}
	workersN := min(s.workers, len(pending))
	// One slot per worker: a finished row never blocks its worker while
	// the previous one is being written, and len(rows) tells the loop
	// below whether another row is ready right now.
	rows := make(chan SweepRow, workersN)
	work := make(chan sweep.Variant)
	for i := 0; i < workersN; i++ {
		go func() {
			for v := range work {
				row, ok := s.resolveVariant(ctx, v, model, compare, id)
				if !ok {
					return // client gone; in-flight jobs still fill the cache
				}
				select {
				case rows <- row:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(work)
		for _, v := range pending {
			select {
			case work <- v:
			case <-ctx.Done():
				return
			}
		}
	}()
	for n := 0; n < len(pending); n++ {
		if len(rows) == 0 {
			idle() // about to wait on a simulation
		}
		select {
		case row := <-rows:
			emit(row)
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// sweepKey is the cache key a variant's result lives under — the same
// key a direct /run or /compare of that spec uses, so sweeps and
// single requests share one result space.
func (s *Server) sweepKey(v sweep.Variant, model core.Model, compare bool) string {
	if compare {
		return compareKey(v.Hash)
	}
	return runKey(model, v.Hash)
}

// resolveVariant computes (or replays) one variant through the shared
// execute path, retrying with backoff while its class queue is
// saturated. ok=false means the request context ended first.
func (s *Server) resolveVariant(ctx context.Context, v sweep.Variant, model core.Model, compare bool, id ident) (SweepRow, bool) {
	// Compile the spec inside the job, not here: a warm variant is
	// answered from a cache tier or a coalesced flight without paying
	// generator compilation (a restarted server replaying a big grid
	// from disk compiles nothing). Expand already validated the spec,
	// so a FromSpec failure is a programming error the job surfaces as
	// its panic-captured 500 body.
	compute := func(jobCtx context.Context, tm *Timing) ([]byte, error) {
		wl, err := core.FromSpec(v.Spec)
		if err != nil {
			return nil, err
		}
		if compare {
			return computeCompare(v.Spec, v.Hash, wl)(jobCtx, tm)
		}
		return computeRun(v.Spec, v.Hash, model, wl)(jobCtx, tm)
	}
	key := s.sweepKey(v, model, compare)
	for attempt := 0; ; attempt++ {
		status, body, disposition, _, err := s.executeOnce(ctx, key, id, compute, attempt > 0)
		if err != nil {
			return SweepRow{}, false
		}
		if status != http.StatusServiceUnavailable {
			return sweepRow(v, disposition, status, body), true
		}
		if disposition == dispositionClosed {
			// The scheduler is shut down, not busy: emit the failure as
			// the row instead of retrying against a terminal condition.
			return sweepRow(v, "", status, body), true
		}
		// Saturated: the sweep absorbs its own backpressure instead of
		// surfacing a mid-stream 503 row. The wait honors the SAME
		// number a 503 response would have advertised in Retry-After —
		// this request's OWN class backlog (a batch sweep backs off on
		// batch depth, never on interactive load), clamped exactly
		// like the shard router's retries — not a hardcoded
		// millisecond loop that hammers a saturated queue dozens of
		// times a second per pending variant.
		if !sleepFor(ctx, RetryWaitSeconds(s.sched.RetryAfterSeconds(id.class))) {
			return SweepRow{}, false
		}
	}
}

// sweepRow renders one emitted row. Non-200 statuses surface the
// body's error message in the row's error field.
func sweepRow(v sweep.Variant, disposition string, status int, body []byte) SweepRow {
	row := SweepRow{
		Index:  v.Index,
		Name:   v.Spec.Name,
		Hash:   v.Hash,
		Params: v.Params,
	}
	if status == http.StatusOK {
		row.Cache = disposition
		row.Result = json.RawMessage(body)
		return row
	}
	var e errorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		row.Error = e.Error
	} else {
		row.Error = fmt.Sprintf("status %d", status)
	}
	return row
}
