// POST /sweep/analyze: run a parameter grid and answer with one
// deterministic analysis document instead of an NDJSON row stream.
//
// The request is a /sweep grid plus an analysis selector (metric,
// objective, top-K, Pareto frontier — internal/agg); the variants run
// through exactly the same engine walk as /sweep (engine.go), so an
// analysis warms the same result space a sweep or a direct /run would,
// and a warm grid analyzes at cache speed with zero simulations. The
// document is a pure function of the result set: a single process and
// a sharded cluster (whose router aggregates router-side) answer the
// same grid with byte-identical bytes, which the smokes assert.
package service

import (
	"fmt"

	"repro/internal/agg"
)

// AnalyzeRequest is the body of POST /sweep/analyze — a sweep grid
// plus the analysis selector, both inlined.
type AnalyzeRequest struct {
	SweepRequest
	agg.Request
}

// AnalyzeInput folds one completed sweep row into an aggregation
// input: metrics parsed, result body dropped.
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
