package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sweep"
)

const (
	// sweepCountsPerSecond sizes the grid's count axis: 85 values at the
	// default 20 s make the 4080-variant grid (6 x 2 x 2 x 2 x 85).
	sweepCountsPerSecond = 85.0 / 20
	// sweepCountBase is the count axis's first value; the seed moves it
	// by under 8 so seeds differ in input, not in work.
	sweepCountBase = 120
	// sweepRouterCacheBytes is cmd/simd's -router-cache-bytes default.
	sweepRouterCacheBytes = 64 << 20
	// warmRepeats is how often a round repeats its sweep, analyzeCalls
	// how often it re-analyzes the stored one.
	warmRepeats  = 3
	analyzeCalls = 3
)

// analyzeSelector is the stored-analyze request every round repeats.
var analyzeSelector = []byte(`{"metric":"cycles","objective":"min","top_k":5,"frontier":{"x":"cycles","y":"throughput","x_objective":"min","y_objective":"max"}}`)

// sweepGrid is one round's request with the locally expanded variants
// its rows are checked against.
type sweepGrid struct {
	req      service.SweepRequest
	body     []byte
	variants []sweep.Variant
	byIndex  map[int]*sweep.Variant
}

// sweepEnv posts one never-seen grid per round to a router over two
// workers, repeats it, and re-analyzes it.
type sweepEnv struct {
	cfg    config
	sys    *system
	cl     *client
	grids  []sweepGrid // one per round this run can make
	used   int
	checks []sweepCheck

	// The traced round's collections.
	tracedGrid *sweepGrid
	tracedRows []shard.Row
	tracedOut  roundOut
	tracedAnMs []float64
	before     scrape
	after      scrape
	cal        *calibrator
}

// sweepCheck is a sampled row held back for the reference check.
type sweepCheck struct {
	variant *sweep.Variant
	result  json.RawMessage
}

func setupSweep(cfg config, _ string) (env, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	nCounts := cfg.scaled(sweepCountsPerSecond, 1)
	countBase := sweepCountBase + rng.Intn(8)
	_, byName := service.ScenarioLibrary()
	e := &sweepEnv{cfg: cfg, cal: newHTTPCalibrator(cfg.clients)}
	// One grid per round this run can make: the warm-up, then either the
	// measured rounds or the traced run's untraced and traced round.
	nGrids := 1 + measuredRounds
	if cfg.trace {
		nGrids = 3
	}
	for r := 0; r < nGrids; r++ {
		n := nCounts
		if r == 0 && n > 1 {
			n = (n + 1) / 2 // the warm-up round is half a grid
		}
		req, err := genSweep(fmt.Sprintf("g%x", rng.Int63()), countBase, n)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		variants, err := service.ExpandSweepRequest(req, byName, 0)
		if err != nil {
			return nil, fmt.Errorf("expanding grid %d: %w", r, err)
		}
		g := sweepGrid{req: req, body: body, variants: variants, byIndex: make(map[int]*sweep.Variant, len(variants))}
		for i := range g.variants {
			g.byIndex[g.variants[i].Index] = &g.variants[i]
		}
		e.grids = append(e.grids, g)
	}
	if err := e.freshCluster(); err != nil {
		return nil, err
	}
	return e, nil
}

// freshCluster replaces the cluster with a new, empty one. Every round
// gets its own, so rounds start from the same state and differ only in
// the grid's name tag; a cluster that carried the earlier rounds'
// results made the third round reliably the slowest and the fifth the
// fastest. The workers are memory-only: with store directories the cold
// stream ran at 2000 or at 3000 rows/s depending on the state of the
// host's disk, which is no basis for comparing commits (README.md, "The
// disk").
func (e *sweepEnv) freshCluster() error {
	if e.sys != nil {
		e.cl.close()
		e.sys.close()
	}
	sys, err := startCluster("", 2, service.Options{Workers: 1}, shard.Options{RouterCacheBytes: sweepRouterCacheBytes})
	if err != nil {
		return err
	}
	e.sys = sys
	e.cl = newClient(sys.url)
	return nil
}

// stream posts the grid and reads the NDJSON stream to its terminal
// row. The wall time runs from the request being sent to the summary
// line; rows are decoded after the clock stops.
func (e *sweepEnv) stream(g *sweepGrid) (rows []shard.Row, id string, wall time.Duration, failed int, err error) {
	t0 := time.Now()
	resp, err := e.cl.hc.Post(e.cl.url+"/sweep", "application/json", bytes.NewReader(g.body))
	if err != nil {
		return nil, "", 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", 0, 0, fmt.Errorf("POST /sweep: status %d", resp.StatusCode)
	}
	var lines [][]byte
	summary, done, err := service.DecodeSweepStream(resp.Body, func(line []byte) error {
		lines = append(lines, append([]byte(nil), line...))
		return nil
	})
	wall = time.Since(t0)
	if err != nil {
		return nil, "", wall, 0, err
	}
	if !done || summary.Errors != 0 || summary.Rows != len(g.variants) {
		failed++
	}
	rows = make([]shard.Row, len(lines))
	seen := make(map[int]bool, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &rows[i]); err != nil {
			return nil, "", wall, 0, fmt.Errorf("decoding sweep row: %w", err)
		}
		row := &rows[i]
		v := g.byIndex[row.Index]
		// Every index exactly once, with the locally computed hash.
		if v == nil || row.Error != "" || row.Hash != v.Hash || seen[row.Index] {
			failed++
			continue
		}
		seen[row.Index] = true
	}
	if len(rows) != len(g.variants) {
		failed++
	}
	return rows, resp.Header.Get(service.SweepIDHeader), wall, failed, nil
}

func (e *sweepEnv) round(rc roundCfg) (roundOut, error) {
	if e.used >= len(e.grids) {
		return roundOut{}, fmt.Errorf("no unused grid left for another round")
	}
	g := &e.grids[e.used]
	if e.used > 0 {
		if err := e.freshCluster(); err != nil {
			return roundOut{}, err
		}
	}
	e.used++
	out := roundOut{also: map[string]float64{}}
	if rc.tr != nil {
		var err error
		if e.before, err = e.cl.scrape(); err != nil {
			return out, err
		}
	}

	// Calibration slices bracket the two streams and the analyses.
	calSlice := e.cfg.roundDur() / 20
	e.cal.slice(calSlice)
	spanID := rc.tr.begin("http.sweep_cold", -1, 0)
	cold, id, coldWall, failed, err := e.stream(g)
	rc.tr.end(spanID)
	if err != nil {
		return out, fmt.Errorf("cold sweep: %w", err)
	}
	out.failed += failed
	e.cal.slice(calSlice)
	for i := range cold {
		if cold[i].Cache != "miss" {
			out.failed++
		}
		if i%checkEvery == 0 {
			e.checks = append(e.checks, sweepCheck{variant: g.byIndex[cold[i].Index], result: cold[i].Result})
		}
	}

	coldResult := make(map[int]json.RawMessage, len(cold))
	for i := range cold {
		coldResult[cold[i].Index] = cold[i].Result
	}
	// The repeat is short (a quarter of the cold stream), so it is
	// streamed warmRepeats times and the median wall time kept.
	var warmWalls []float64
	for w := 0; w < warmRepeats; w++ {
		spanID = rc.tr.begin("http.sweep_warm", -1, 1+w)
		warm, _, wall, failed, err := e.stream(g)
		rc.tr.end(spanID)
		if err != nil {
			return out, fmt.Errorf("warm sweep: %w", err)
		}
		out.failed += failed
		warmWalls = append(warmWalls, wall.Seconds())
		for i := range warm {
			// A repeat must come from a cache and carry the cold bytes.
			if (warm[i].Cache != "hit" && warm[i].Cache != "router_hit") || !bytes.Equal(warm[i].Result, coldResult[warm[i].Index]) {
				out.failed++
			}
		}
	}
	warmWall := median(warmWalls)
	e.cal.slice(calSlice)

	var analyzeMs []float64
	var first []byte
	for a := 0; a < analyzeCalls; a++ {
		spanID = rc.tr.begin("http.analyze", -1, 1+warmRepeats+a)
		t0 := time.Now()
		status, _, doc, err := e.cl.post("/sweep/"+id+"/analyze", analyzeSelector)
		analyzeMs = append(analyzeMs, float64(time.Since(t0))/1e6)
		rc.tr.end(spanID)
		if err != nil {
			return out, fmt.Errorf("analyze: %w", err)
		}
		if a == 0 {
			first = doc
		}
		// Repeated analyses of a stored sweep are byte-identical.
		if status != 200 || !bytes.Equal(doc, first) {
			out.failed++
		}
	}

	e.cal.slice(calSlice)
	out.speed = e.cal.take()
	out.ops = len(cold)
	out.attempted = len(g.variants)*(1+warmRepeats) + analyzeCalls
	out.throughput = float64(len(cold)) / coldWall.Seconds()
	out.p50ms = warmWall * 1e3
	out.also["warm_variants_per_s"] = float64(len(cold)) / warmWall
	out.also["analyze_ms"] = median(analyzeMs)
	perOwner := map[int]int{}
	for i := range cold {
		perOwner[cold[i].Shard]++
	}
	most := 0
	for _, n := range perOwner {
		if n > most {
			most = n
		}
	}
	if len(perOwner) > 0 {
		out.also["owner_skew"] = float64(most) * float64(len(perOwner)) / float64(len(cold))
	}
	if rc.tr != nil {
		if e.after, err = e.cl.scrape(); err != nil {
			return out, err
		}
		e.tracedGrid, e.tracedRows, e.tracedOut, e.tracedAnMs = g, cold, out, analyzeMs
	}
	return out, nil
}

// finish compares the sampled cold rows with direct simulations.
func (e *sweepEnv) finish() (attempted, failed int, notes []string, err error) {
	for _, c := range e.checks {
		attempted++
		if c.variant == nil {
			failed++
			continue
		}
		var got service.RunResponse
		if err := json.Unmarshal(c.result, &got); err != nil {
			failed++
			continue
		}
		w, err := core.FromSpec(c.variant.Spec)
		if err != nil {
			return attempted, failed, nil, fmt.Errorf("compiling variant %d: %w", c.variant.Index, err)
		}
		ref := core.Run(w, core.TLM, core.Options{})
		if got.Hash != c.variant.Hash || got.Cycles != uint64(ref.Cycles) {
			failed++
		}
	}
	return attempted, failed, []string{fmt.Sprintf("%d sampled sweep rows compared with a direct core.Run", attempted)}, nil
}

// layers derives the router-side and analysis metrics from the traced
// round: it simulates the whole grid directly, which is the base of
// shard.sweep_overhead_x.
func (e *sweepEnv) layers(samples map[string][]float64) error {
	g := e.tracedGrid
	var direct time.Duration
	for i := range g.variants {
		w, err := core.FromSpec(g.variants[i].Spec)
		if err != nil {
			return err
		}
		t0 := time.Now()
		core.Run(w, core.TLM, core.Options{})
		direct += time.Since(t0)
	}
	workers := float64(len(e.sys.workers))
	coldSeconds := float64(e.tracedOut.ops) / e.tracedOut.throughput
	samples["shard.sweep_overhead_x"] = []float64{coldSeconds / (direct.Seconds() / workers)}
	samples["shard.owner_skew"] = []float64{e.tracedOut.also["owner_skew"]}
	samples["sweep.warm_variants_per_s"] = []float64{e.tracedOut.also["warm_variants_per_s"]}
	samples["agg.analyze_ms"] = e.tracedAnMs
	samples["shard.steals"] = []float64{delta(e.before, e.after, "simd_router_steals_total")}
	samples["shard.failovers"] = []float64{delta(e.before, e.after, "simd_router_failovers_total")}
	samples["shard.retries"] = []float64{delta(e.before, e.after, "simd_router_retries_total")}
	samples["sched.rejected"] = []float64{delta(e.before, e.after, "simd_rejections_total")}
	cacheShares(e.before, e.after, samples)

	// agg over the rows the cold stream delivered.
	inputs := make([]agg.Input, len(e.tracedRows))
	var fromResult []float64
	for i := range e.tracedRows {
		t0 := time.Now()
		inputs[i] = service.AnalyzeInput(false, e.tracedRows[i].SweepRow)
		fromResult = append(fromResult, float64(time.Since(t0))/1e3)
	}
	samples["agg.metrics_from_result_us"] = fromResult
	var selector agg.Request
	if err := json.Unmarshal(analyzeSelector, &selector); err != nil {
		return err
	}
	var perRow []float64
	for a := 0; a < analyzeCalls; a++ {
		t0 := time.Now()
		if _, err := agg.Analyze(selector, false, service.AggAxes(g.req.Axes), len(g.variants), inputs); err != nil {
			return fmt.Errorf("agg.Analyze: %w", err)
		}
		perRow = append(perRow, float64(time.Since(t0))/1e3/float64(len(inputs)))
	}
	samples["agg.analyze_us_per_row"] = perRow
	return obsProbe(e.after.body, samples)
}

func (e *sweepEnv) config() map[string]any {
	return map[string]any{
		"shape": "router + 2 memory-only workers, fresh per round", "service_workers_each": 1, "base": sweepBase, "model": "tl",
		"variants": len(e.grids[len(e.grids)-1].variants), "warmup_variants": len(e.grids[0].variants),
		"cache_entries_each": service.DefaultCacheEntries, "router_cache_bytes": sweepRouterCacheBytes,
		"warm_repeats": warmRepeats, "analyze_calls": analyzeCalls, "rounds_are_fixed_work": true, "reference_check_every": checkEvery,
	}
}

func (e *sweepEnv) checksum() string { return "" }

func (e *sweepEnv) close() {
	if e.cl != nil {
		e.cl.close()
	}
	e.cal.close()
	if e.sys != nil {
		e.sys.close()
	}
}
