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

// rowWriter streams NDJSON lines over an HTTP response and coalesces
// their flushes. Write buffers a line; Flush pushes what is buffered to
// the client. The sweep engine flushes whenever no further row is
// immediately ready and after the terminal line — never per row — so
// a burst of ready rows costs one write to the socket, and no row ever
// waits on a row that is not there yet.
type rowWriter struct {
	enc     *json.Encoder
	flusher http.Flusher
	dirty   bool
}

// newRowWriter wraps a response whose status line is already written.
// The headers count as unflushed: the first Flush pushes them out even
// before any row exists.
func newRowWriter(w http.ResponseWriter) *rowWriter {
	flusher, _ := w.(http.Flusher)
	return &rowWriter{enc: json.NewEncoder(clientWriter{w}), flusher: flusher, dirty: true}
}

// clientWriter drops write errors: a client that hung up is something
// the stream's owner learns from its request context, which leaves an
// error from the encoder meaning one thing — the line did not encode.
type clientWriter struct{ w io.Writer }

func (c clientWriter) Write(p []byte) (int, error) {
	_, _ = c.w.Write(p)
	return len(p), nil
}

// Write encodes one line. A non-nil error means the line does not
// encode (a result body that is not JSON) and nothing was written.
func (rw *rowWriter) Write(line any) error {
	rw.dirty = true
	return rw.enc.Encode(line)
}

// Flush pushes the lines written since the last Flush to the client.
func (rw *rowWriter) Flush() {
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

// workerTier is the sweep engine's seam onto one worker process: every
// chunk runs on a single lane of the server's own workers (so nothing
// is ever stolen), a variant resolves through the same
// cache/singleflight/scheduler path as /run and /compare, and
// manifests live in the server's own cache tiers.
type workerTier struct{ s *Server }

func (t workerTier) CheckCycleCap(sp spec.Spec) error { return t.s.checkCycleCap(sp) }

func (t workerTier) GridError(row SweepRow) SweepLine { return row }

func (t workerTier) LoadManifest(_ context.Context, id string) (*SweepManifest, bool) {
	return t.s.loadManifest(id)
}

func (t workerTier) SaveManifest(m *SweepManifest) { t.s.checkpointManifest(m) }

// Begin binds the request's tenant and class (batch unless X-Class says
// otherwise) to the planner its variants execute under.
func (t workerTier) Begin(r *http.Request) (SweepPlanner, error) {
	s := t.s
	id, err := ParseIdent(r, sched.Batch)
	if err != nil {
		return nil, err
	}
	return func(m SweepModel, variants []sweep.Variant) SweepPlan {
		// Serve every memory-cached variant immediately, so a warm sweep
		// streams at memory speed no matter how busy the pool is, and
		// leave the rest to the lane. Disk-held variants resolve on the
		// lane — executeOnce's lookup finds them without touching the
		// pool, so they also stream while it is saturated, and the disk
		// tier is probed exactly once per variant.
		var ready []SweepLine
		var pending []sweep.Variant
		for _, v := range variants {
			if body, ok := s.lookupMemory(m.Key(v.Hash)); ok {
				row := NewSweepRow(v)
				row.Settle("hit", http.StatusOK, body)
				ready = append(ready, row)
				continue
			}
			pending = append(pending, v)
		}
		// The lane is bounded by the worker count; the scheduler's
		// per-class queue bound stays the real limiter.
		return SweepPlan{
			Ready: ready,
			Lanes: []SweepLane{{Conc: s.workers, Queue: pending}},
			Resolve: func(ctx context.Context, run []sweep.Variant, _, _ int, emit func(SweepLine)) bool {
				for _, v := range run {
					row, ok := s.resolveVariant(ctx, v, m, id)
					if !ok {
						return false
					}
					emit(row)
				}
				return true
			},
		}
	}, nil
}

// resolveVariant computes (or replays) one variant through the shared
// execute path. ok=false means the request context ended first.
func (s *Server) resolveVariant(ctx context.Context, v sweep.Variant, m SweepModel, id Ident) (SweepRow, bool) {
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
		return m.compute(v.Spec, v.Hash, wl)(jobCtx, tm)
	}
	status, body, disposition, ok := s.executePatient(ctx, m.Key(v.Hash), id, compute)
	if !ok {
		return SweepRow{}, false
	}
	row := NewSweepRow(v)
	row.Settle(disposition, status, body)
	return row, true
}

// executePatient is executeOnce for work that belongs to a sweep — a
// variant of this worker's own stream, a line of a router's POST
// /batch: it retries with backoff while the class queue is saturated
// instead of surfacing a 503. The 503 it can still return is the
// terminal one (disposition dispositionClosed): the scheduler is shut
// down, not busy, and retrying would spin against a server that is
// going away. ok=false means ctx ended first.
func (s *Server) executePatient(ctx context.Context, key string, id Ident, compute func(context.Context, *Timing) ([]byte, error)) (status int, body []byte, disposition string, ok bool) {
	for attempt := 0; ; attempt++ {
		status, body, disposition, _, err := s.executeOnce(ctx, key, id, compute, attempt > 0)
		if err != nil {
			return 0, nil, "", false
		}
		if status != http.StatusServiceUnavailable || disposition == dispositionClosed {
			return status, body, disposition, true
		}
		// Saturated: the sweep absorbs its own backpressure instead of
		// surfacing a mid-stream 503 row. The wait honors the SAME
		// number a 503 response would have advertised in Retry-After —
		// this request's OWN class backlog (a batch sweep backs off on
		// batch depth, never on interactive load), clamped exactly
		// like the shard router's retries — not a hardcoded
		// millisecond loop that hammers a saturated queue dozens of
		// times a second per pending variant.
		if !sleepFor(ctx, RetryWaitSeconds(s.sched.RetryAfterSeconds(id.Class))) {
			return 0, nil, "", false
		}
	}
}

// NewSweepRow starts variant v's row: identity fields set, outcome not
// yet.
func NewSweepRow(v sweep.Variant) SweepRow {
	return SweepRow{Index: v.Index, Name: v.Spec.Name, Hash: v.Hash, Params: v.Params}
}

// Settle records the variant's outcome from the /run or /compare
// response that produced it: a 200 body is the result, served with the
// given cache disposition; any other status surfaces the error body's
// message in the row's error field.
func (row *SweepRow) Settle(disposition string, status int, body []byte) {
	if status == http.StatusOK {
		row.Cache = disposition
		row.Result = json.RawMessage(body)
		return
	}
	var e errorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		row.Error = e.Error
	} else {
		row.Error = fmt.Sprintf("status %d", status)
	}
}
