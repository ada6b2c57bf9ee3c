// The sweep engine: the one orchestrator behind POST /sweep, POST
// /sweep/analyze and the /sweep/{id} family on BOTH serving tiers.
//
// A worker process and the shard router answer the same grids with the
// same bytes because they run the same code, not two copies kept in
// step: the engine owns the pre-flight (grid, caps, model, sweep id),
// the chunked walk with expansion running one chunk ahead, the fan-out
// over per-lane queues with tail stealing, completion-order emit with
// coalesced flushes, manifest bits and checkpoint cadence, the terminal
// summary row, the analysis fold and the five HTTP handlers. What a
// tier supplies is the SweepTier seam: where a chunk's variants run
// (one lane of local workers; one lane per shard), how one variant is
// resolved on a lane, and where manifests live (the local store; a
// rank-walk over the cluster). A lane takes its queue in runs — short
// slices whose length follows the queue's depth — so a tier may execute
// a run in one step (the cluster sends a run's misses to their owner in
// one POST /batch) while the tail of a chunk still goes out one variant
// at a time. A new way of executing variants — replicated placement — is
// a new Resolve behind this seam, never another orchestrator.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/agg"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// sweepChunkSize is how many expanded variants a sweep holds in
// memory at once: the grid is walked lazily and resolved chunk by
// chunk, so a 100k-variant sweep costs O(chunk), not O(grid).
const sweepChunkSize = 2048

// manifestCheckpointRows is how many emitted rows ride between
// manifest checkpoints. Small enough that a killed stream loses
// little progress, large enough that checkpoint writes stay noise
// next to simulation cost.
const manifestCheckpointRows = 256

// SweepTier is what a serving tier supplies to the engine.
type SweepTier interface {
	// CheckCycleCap applies the tier's max_cycles cap to one spec.
	CheckCycleCap(sp spec.Spec) error
	// Begin validates the scheduling identity r carries (tenant and
	// class; batch when the request names no class) and returns the
	// planner that runs the request's chunks under it.
	Begin(r *http.Request) (SweepPlanner, error)
	// GridError wraps an error row no lane produced — a grid point
	// whose spec failed to build, a result that failed to encode — in
	// the tier's line shape.
	GridError(row SweepRow) SweepLine
	// LoadManifest returns the stored manifest of sweep id, already
	// through SweepManifest.Accept. A missing, unreadable or corrupt
	// copy is (nil, false).
	LoadManifest(ctx context.Context, id string) (*SweepManifest, bool)
	// SaveManifest merge-persists m, best effort: a lost checkpoint
	// costs bookkeeping, never rows. It runs after the client may have
	// gone, so it must not depend on the request's context.
	SaveManifest(m *SweepManifest)
}

// SweepPlanner lays one chunk of variants out for execution under the
// request's model. The engine calls it once per chunk, so a tier whose
// membership can change plans every chunk against a fresh snapshot.
type SweepPlanner func(m SweepModel, variants []sweep.Variant) SweepPlan

// SweepPlan is how a tier runs one chunk.
type SweepPlan struct {
	// Ready are lines the tier can answer without waiting on anything;
	// they are emitted first, so a warm row never queues behind a cold
	// one.
	Ready []SweepLine
	// Lanes are the chunk's execution lanes, each holding the variants
	// it owns.
	Lanes []SweepLane
	// Resolve computes (or replays) the variants of run on lane, called
	// from one of that lane's goroutines, and hands each one's line to
	// emit as it settles. from is the lane whose queue the run was taken
	// from; from != lane means lane stole it. ok=false means ctx ended
	// first: some of the run may not have been emitted.
	Resolve func(ctx context.Context, run []sweep.Variant, lane, from int, emit func(SweepLine)) (ok bool)
}

// SweepLane is one execution lane of a chunk: Conc runs in flight at
// once — each executing its variants in order, so Conc variants — taken
// from the head of Queue.
type SweepLane struct {
	Conc  int
	Queue []sweep.Variant
}

// SweepLine is one NDJSON data line of a sweep stream in its tier's own
// wire shape — a bare SweepRow on a worker, the row plus placement tags
// on the router. The engine encodes the line as it is and reads
// progress from the row inside.
type SweepLine interface {
	Data() SweepRow
}

// Data makes a bare row (and any line type embedding one) a SweepLine.
func (r SweepRow) Data() SweepRow { return r }

// SweepEngine serves the sweep endpoints of one tier.
type SweepEngine struct {
	tier        SweepTier
	scenarios   map[string]spec.Spec
	maxVariants int
	rows        *obs.Counter // data rows streamed to clients
	resumes     *obs.Counter // resume streams served
}

// NewSweepEngine builds the engine for tier. scenarios is the library
// a request's scenario name resolves in, maxVariants the cap on a
// grid's full Cartesian product; rows and resumes are the tier's
// counters for streamed data rows and served resume streams.
func NewSweepEngine(tier SweepTier, scenarios map[string]spec.Spec, maxVariants int, rows, resumes *obs.Counter) *SweepEngine {
	return &SweepEngine{tier: tier, scenarios: scenarios, maxVariants: maxVariants, rows: rows, resumes: resumes}
}

// sweepJob is one sweep request past pre-flight.
type sweepJob struct {
	grid  sweep.Grid
	total int
	model SweepModel
	id    string
	plan  SweepPlanner
}

// admit runs the pre-flight every sweep endpoint shares, in one fixed
// order — scheduling identity, grid and variant cap, cycle caps, model,
// analysis selector (sel may be nil), sweep id — so both tiers accept
// exactly the same requests and answer a bad one with the same 400.
// ok=false means the 400 is already written.
func (e *SweepEngine) admit(w http.ResponseWriter, r *http.Request, req SweepRequest, sel *agg.Request) (job sweepJob, ok bool) {
	fail := func(err error) (sweepJob, bool) {
		WriteError(w, r, http.StatusBadRequest, "%v", err)
		return sweepJob{}, false
	}
	var err error
	if job.plan, err = e.tier.Begin(r); err != nil {
		return fail(err)
	}
	if job.grid, job.total, err = ResolveSweepGrid(req, e.scenarios, e.maxVariants); err != nil {
		return fail(err)
	}
	if err = checkGridCycleCaps(job.grid, e.tier.CheckCycleCap); err != nil {
		return fail(err)
	}
	if job.model, err = sweepModel(req.Model); err != nil {
		return fail(err)
	}
	// Reject a bad analysis selector BEFORE the grid costs anything:
	// an unknown metric must not burn 100k simulations first.
	if sel != nil {
		if err = sel.Validate(job.model.Compare); err != nil {
			return fail(err)
		}
	}
	if job.id, err = SweepID(req, e.scenarios); err != nil {
		return fail(err)
	}
	return job, true
}

// decodePost admits a POST request's JSON body (what names it in the
// error) into v, rejecting unknown fields; false means the 405 or 400
// is already written.
func decodePost(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	if r.Method != http.MethodPost {
		WriteError(w, r, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, r, http.StatusBadRequest, "parsing %s: %v", what, err)
		return false
	}
	return true
}

// HandleSweep serves POST /sweep: the grid's NDJSON row stream.
func (e *SweepEngine) HandleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if decodePost(w, r, "request", &req) {
		e.stream(w, r, req, -1)
	}
}

// stream validates the grid and streams its NDJSON rows — POST /sweep
// (after = -1: the whole grid) and GET /sweep/{id}/resume (after = the
// client's high-water mark). It checkpoints the sweep's manifest as
// rows complete, so the sweep's identity and per-variant progress
// survive this stream's death.
func (e *SweepEngine) stream(w http.ResponseWriter, r *http.Request, req SweepRequest, after int) {
	job, ok := e.admit(w, r, req, nil)
	if !ok {
		return
	}
	// Resume the stored manifest when its grid size still matches,
	// otherwise start a fresh one.
	man, ok := e.tier.LoadManifest(r.Context(), job.id)
	if !ok || man.Total != job.total {
		man = &SweepManifest{
			Version: 1, ID: job.id, Request: req, Total: job.total,
			Done: sweep.NewBitset(job.total), Failed: sweep.NewBitset(job.total),
		}
	}

	// The stream is committed: from here, per-variant failures are
	// rows with an error field, not HTTP errors.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Variants", strconv.Itoa(job.total))
	w.Header().Set(SweepIDHeader, job.id)
	w.WriteHeader(http.StatusOK)
	out := newRowWriter(w)
	// Push the headers out now: on an all-miss grid no row may flush
	// for a while, and a client (or the shard router) pacing itself on
	// X-Sweep-Variants must not block on a header buffered server-side.
	out.Flush()
	emitted, errored, sinceCheckpoint := 0, 0, 0
	emit := func(line SweepLine) {
		if err := out.Write(line); err != nil {
			// A result that does not encode wrote nothing: the variant
			// still gets its one line, as the error row it is.
			row := line.Data()
			row.Cache, row.Result, row.Error = "", nil, fmt.Sprintf("encoding row: %v", err)
			line = e.tier.GridError(row)
			_ = out.Write(line) // an error row carries nothing that fails to encode
		}
		e.rows.Inc()
		emitted++
		if row := line.Data(); row.Error != "" {
			errored++
			man.Failed.Set(row.Index)
		} else {
			man.Done.Set(row.Index)
			man.Failed.Clear(row.Index)
		}
		if sinceCheckpoint++; sinceCheckpoint >= manifestCheckpointRows {
			sinceCheckpoint = 0
			out.Flush() // about to wait on the store: written rows go first
			e.tier.SaveManifest(man)
		}
	}

	// Client gone mid-grid: no terminal row — a truncated stream IS
	// truncated, and saying otherwise to a half-closed socket helps
	// nobody. The final checkpoint still runs: progress made before
	// the disconnect is exactly what a resume wants to skip.
	distinct, complete := e.walk(r.Context(), job, after, emit, out.Flush)
	if complete {
		// The terminal summary row runs only when every variant
		// produced a row — nothing here fakes completion.
		_ = out.Write(SweepSummary{Done: true, Rows: emitted, Errors: errored}) // three scalars always encode
		// A completed walk knows the deduplicated variant count even
		// when it only EMITTED a suffix — the walk itself always
		// enumerates from index 0 — so a resume that reaches the end
		// can mark the sweep complete just like the initial stream.
		man.Variants = distinct
	}
	out.Flush()
	e.tier.SaveManifest(man)
}

// walk resolves the grid in bounded chunks while the grid engine
// expands the next chunk in the background (sweep.WalkChunks): at most
// two chunks of sweepChunkSize expanded variants exist at a time, so
// grid memory stays O(chunk) and the lanes never idle behind a serial
// walk. Variants with Index <= after are skipped (their rows streamed
// before a disconnect); build failures on individual grid points
// become error rows, not stream deaths. idle runs whenever no further
// row is immediately ready — before waiting on a variant, and at the
// end of every chunk. Returns the deduplicated variant count of the
// FULL walk (valid only when complete) and whether the walk finished
// before ctx ended.
func (e *SweepEngine) walk(ctx context.Context, job sweepJob, after int, emit func(SweepLine), idle func()) (distinct int, complete bool) {
	distinct, err := job.grid.WalkChunks(ctx, after, sweepChunkSize, func(c sweep.Chunk) error {
		for _, f := range c.Failed {
			emit(e.tier.GridError(SweepRow{Index: f.Variant.Index, Name: f.Variant.Spec.Name, Params: f.Variant.Params, Error: f.Err.Error()}))
		}
		if len(c.Variants) > 0 && !runChunk(ctx, job.plan(job.model, c.Variants), emit, idle) {
			return context.Canceled
		}
		idle()
		return nil
	})
	return distinct, err == nil
}

// laneQueues is a chunk's pending work: one queue per lane, drained
// from the head by the lane's own workers and stolen from the tail by
// everyone else's.
type laneQueues struct {
	mu    sync.Mutex
	lanes []SweepLane
}

// maxSweepRun clamps the length of a run, and is therefore the most
// lines a POST /batch carries: long enough that a run's one round trip
// is noise next to its simulations, short enough that a full reply
// stays far below the backend client's response bound.
const maxSweepRun = 32

// runLen is how many variants one worker takes from a lane's queue at
// once: half an even deal of what is queued among the lane's workers,
// so a deep queue goes out in long runs and a draining one in ever
// shorter ones — the tail of a chunk is single variants, balanced and
// stolen exactly as if runs did not exist.
func (l SweepLane) runLen() int {
	return min(max(len(l.Queue)/max(2*l.Conc, 1), 1), maxSweepRun)
}

// next hands the worker of lane self its next run and the lane it was
// queued on: the head of its own queue first; once that is empty, the
// tail of the DEEPEST other queue — but only while that queue holds
// more work than its lane has concurrent slots: a backlog the owner is
// about to clear anyway is left alone, while a skewed chunk stops being
// wall-clock-bounded by its hottest lane. A run of more than one
// variant is at most half its queue, so the two ends never meet and a
// theft leaves the victim at least its Conc; a one-lane plan simply
// never steals. ok=false: nothing left for this worker.
func (q *laneQueues) next(self int) (run []sweep.Variant, from int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if own := q.lanes[self]; len(own.Queue) > 0 {
		n := own.runLen()
		q.lanes[self].Queue = own.Queue[n:]
		return own.Queue[:n], self, true
	}
	victim := -1
	for j, lane := range q.lanes {
		if j == self || len(lane.Queue) <= lane.Conc {
			continue
		}
		if victim < 0 || len(lane.Queue) > len(q.lanes[victim].Queue) {
			victim = j
		}
	}
	if victim < 0 {
		return nil, -1, false
	}
	deep := q.lanes[victim].Queue
	keep := len(deep) - q.lanes[victim].runLen()
	q.lanes[victim].Queue = deep[:keep]
	return deep[keep:], victim, true
}

// runChunk executes one planned chunk and invokes emit — always from
// this goroutine — once per variant in completion order. Returns false
// when ctx ended first: the emitted set is then a subset and must not
// be read as the whole chunk. EVERY lane gets workers — including lanes
// that own nothing in this chunk, which is what lets them steal.
func runChunk(ctx context.Context, plan SweepPlan, emit func(SweepLine), idle func()) bool {
	for _, line := range plan.Ready {
		emit(line)
	}
	pending := 0
	for _, lane := range plan.Lanes {
		pending += len(lane.Queue)
	}
	if pending == 0 {
		return true
	}
	queues := laneQueues{lanes: slices.Clone(plan.Lanes)}

	workersN := 0
	for _, lane := range plan.Lanes {
		workersN += min(lane.Conc, pending)
	}
	// One slot per worker: a finished row never blocks its worker while
	// the previous one is being written (a run that settles all at once
	// paces itself on the emit loop, which a larger buffer measured no
	// faster), and len(rows) tells the emit loop whether another row is
	// ready right now.
	rows := make(chan SweepLine, workersN)
	send := func(line SweepLine) {
		select {
		case rows <- line:
		case <-ctx.Done():
		}
	}
	var wg sync.WaitGroup
	for i, lane := range plan.Lanes {
		for k := min(lane.Conc, pending); k > 0; k-- {
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				for ctx.Err() == nil {
					run, from, ok := queues.next(self)
					if !ok {
						return // chunk drained (for this worker)
					}
					if !plan.Resolve(ctx, run, self, from, send) {
						return // client gone; in-flight work still fills the caches
					}
				}
			}(i)
		}
	}
	// Close the merged stream once every worker is done, so the emit
	// loop below can range to completion even if workers bail early on
	// a cancelled context.
	go func() {
		wg.Wait()
		close(rows)
	}()

	for {
		if len(rows) == 0 {
			idle() // about to wait on a variant
		}
		line, ok := <-rows
		if !ok {
			return ctx.Err() == nil
		}
		emit(line)
	}
}

// HandleAnalyze serves POST /sweep/analyze: run the grid exactly like
// /sweep and answer with one deterministic analysis document instead
// of a row stream.
func (e *SweepEngine) HandleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if decodePost(w, r, "request", &req) {
		e.analyze(w, r, req)
	}
}

// analyze runs the decoded analysis request — POST /sweep/analyze (grid
// inlined) and POST /sweep/{id}/analyze (grid from the stored
// manifest), which is what makes the two byte-identical on the same
// result space, and a cluster byte-identical to a single process. Rows
// are folded into metric inputs as they complete, so a 100k-variant
// analysis holds per-variant metrics, never the full result bodies. A
// variant no lane could serve surfaces as explicit incomplete metadata
// (failed list, analyzed < variants) — never a silently-shrunk
// frontier that reads like the whole design space.
func (e *SweepEngine) analyze(w http.ResponseWriter, r *http.Request, req AnalyzeRequest) {
	job, ok := e.admit(w, r, req.SweepRequest, &req.Request)
	if !ok {
		return
	}
	inputs := make([]agg.Input, 0, min(job.total, sweepChunkSize))
	distinct, complete := e.walk(r.Context(), job, -1, func(line SweepLine) {
		inputs = append(inputs, AnalyzeInput(job.model.Compare, line.Data()))
	}, func() {})
	if !complete {
		return // client gone; in-flight work still fills the caches
	}
	doc, err := agg.Analyze(req.Request, job.model.Compare, AggAxes(req.Axes), distinct, inputs)
	if err != nil {
		// The grid ran but the analysis cannot be computed from its
		// results (a per-master metric naming a port the workload lacks
		// slips past static validation). The results are cached, so a
		// corrected request replays for free.
		WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := json.Marshal(doc)
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("X-Sweep-Variants", strconv.Itoa(job.total))
	w.Header().Set(SweepIDHeader, job.id)
	writeJSON(w, http.StatusOK, body)
}

// stored loads the manifest the request's {id} names, answering 404
// itself when no tier copy is readable: the client's honest fallback
// is re-POSTing the sweep, whose deterministic id rebuilds the same
// manifest with a full re-enumeration (mostly cache hits).
func (e *SweepEngine) stored(w http.ResponseWriter, r *http.Request) (*SweepManifest, bool) {
	id := r.PathValue("id")
	m, ok := e.tier.LoadManifest(r.Context(), id)
	if !ok {
		WriteError(w, r, http.StatusNotFound, "unknown sweep %q (re-POST the grid to /sweep to rebuild it)", id)
	}
	return m, ok
}

// HandleStatus serves GET /sweep/{id}: the stored manifest with
// derived progress counts.
func (e *SweepEngine) HandleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	m, ok := e.stored(w, r)
	if !ok {
		return
	}
	body, err := json.Marshal(m.Status())
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set(SweepIDHeader, m.ID)
	writeJSON(w, http.StatusOK, body)
}

// HandleResume serves GET /sweep/{id}/resume?after=N: the stored
// sweep's NDJSON stream restricted to variants with Index > N. The
// semantics are replay, not delta — every variant past the offset
// streams again regardless of manifest bits (done ones at cache
// speed), so duplicate offsets are idempotent and a lost checkpoint
// can never turn into a silent gap. after defaults to -1 (the whole
// grid).
func (e *SweepEngine) HandleResume(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	after := -1
	if q := r.URL.Query().Get("after"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, "after=%q is not an integer", q)
			return
		}
		after = max(n, -1)
	}
	m, ok := e.stored(w, r)
	if !ok {
		return
	}
	e.resumes.Inc()
	e.stream(w, r, m.Request, after)
}

// HandleStoredAnalyze serves POST /sweep/{id}/analyze: the analysis
// selector in the body is applied to the STORED sweep's grid. A
// completed sweep re-analyzes with zero simulations — every variant is
// a cache hit — and the document is byte-identical to POST
// /sweep/analyze with the full grid inlined, because both run analyze.
func (e *SweepEngine) HandleStoredAnalyze(w http.ResponseWriter, r *http.Request) {
	var sel agg.Request
	if !decodePost(w, r, "analysis selector", &sel) {
		return
	}
	if m, ok := e.stored(w, r); ok {
		e.analyze(w, r, AnalyzeRequest{SweepRequest: m.Request, Request: sel})
	}
}
