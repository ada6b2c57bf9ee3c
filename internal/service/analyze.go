// POST /sweep/analyze: run a parameter grid and answer with one
// deterministic analysis document instead of an NDJSON row stream.
//
// The request is a /sweep grid plus an analysis selector (metric,
// objective, top-K, Pareto frontier — internal/agg); the variants run
// through exactly the same cache/singleflight/pool path as /sweep
// (collectRows), so an analysis warms the same result space a sweep
// or a direct /run would, and a warm grid analyzes at cache speed
// with zero simulations. The document is a pure function of the
// result set: a single process and a sharded cluster (whose router
// aggregates router-side) answer the same grid with byte-identical
// bytes, which the smokes assert.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/agg"
	"repro/internal/sched"
)

// AnalyzeRequest is the body of POST /sweep/analyze — a sweep grid
// plus the analysis selector, both inlined. The wire contract is
// shared with frontends: the shard router decodes one to partition
// the same grid and aggregate router-side.
type AnalyzeRequest struct {
	SweepRequest
	agg.Request
}

// handleAnalyze serves POST /sweep/analyze.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req AnalyzeRequest
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
	s.analyzeGrid(w, r, req, id)
}

// analyzeGrid runs the decoded analysis request — the shared engine
// of POST /sweep/analyze (grid inlined) and POST /sweep/{id}/analyze
// (grid from the stored manifest), which is what makes the two
// byte-identical on the same result space. Rows are folded into
// metric inputs as they complete, so a 100k-variant analysis holds
// per-variant metrics, never the full result bodies.
func (s *Server) analyzeGrid(w http.ResponseWriter, r *http.Request, req AnalyzeRequest, aid ident) {
	grid, total, err := ResolveSweepGrid(req.SweepRequest, s.scenarioByName, s.maxSweepVariants)
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
	// Reject a bad analysis selector BEFORE the grid costs anything:
	// an unknown metric must not burn 100k simulations first.
	if err := req.Request.Validate(compare); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := SweepID(req.SweepRequest, s.scenarioByName)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}

	inputs := make([]agg.Input, 0, min(total, sweepChunkSize))
	distinct, complete := s.collectGrid(r.Context(), grid, -1, model, compare, aid, func(row SweepRow) {
		inputs = append(inputs, AnalyzeInput(compare, row))
	}, func() {})
	if !complete {
		return // client gone; in-flight jobs still fill the cache
	}
	doc, err := agg.Analyze(req.Request, compare, AggAxes(req.Axes), distinct, inputs)
	if err != nil {
		// The grid ran but the analysis cannot be computed from its
		// results (a per-master metric naming a port the workload lacks
		// slips past static validation). The results are cached, so a
		// corrected request replays for free.
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := json.Marshal(doc)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("X-Sweep-Variants", strconv.Itoa(total))
	w.Header().Set(SweepIDHeader, id)
	s.writeBody(w, http.StatusOK, body, "", "")
}

// AnalyzeInput folds one completed sweep row into an aggregation
// input: metrics parsed, result body dropped. It is shared between
// the backend and the shard router so both ends of a deployment
// derive byte-identical documents from identical row sets — same
// metric extraction, same error surfacing.
func AnalyzeInput(compare bool, row SweepRow) agg.Input {
	in := agg.Input{Index: row.Index, Name: row.Name, Hash: row.Hash, Params: row.Params}
	if row.Error != "" {
		in.Err = row.Error
	} else if m, err := agg.MetricsFromResult(compare, row.Result); err != nil {
		in.Err = fmt.Sprintf("parsing result: %v", err)
	} else {
		in.Metrics = m
	}
	return in
}

// AggAxes converts wire axes to aggregation axes.
func AggAxes(axes []SweepAxis) []agg.Axis {
	aaxes := make([]agg.Axis, len(axes))
	for i, ax := range axes {
		aaxes[i] = agg.Axis{Param: ax.Param, Values: ax.Values}
	}
	return aaxes
}
