// Spec service walkthrough and smoke check: start the simulation
// service in-process, submit the declarative workload spec in
// spec.json, and watch the content-addressed cache work — the second
// submission returns the byte-identical body without re-simulating.
// Then sweep a parameter grid through POST /sweep (rows stream as
// NDJSON), restart the server over the same disk store, and confirm
// the whole sweep replays from disk as hits.
//
//	go run ./examples/spec_service
//
// The walkthrough asserts each step and exits nonzero on any
// violation, so CI runs it as the service smoke test. The same
// requests work against a standalone server (`go run ./cmd/simd
// -store DIR` + curl); see the README's service section.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/agg"
	"repro/internal/clustertest"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/spec"
)

var fail = clustertest.Fail

// post submits body to url and returns the status, X-Cache header and
// response body.
func post(url string, body any) (int, string, []byte) {
	status, hdr, out := clustertest.Post(url, body)
	return status, hdr.Get("X-Cache"), out
}

// runSweep posts the grid and returns every streamed NDJSON data row
// plus the per-disposition counts. A truncated stream (no terminal
// summary row) already failed the smoke inside RunSweep; an error row
// fails it here.
func runSweep(url string, req service.SweepRequest) (rows []service.SweepRow, byCache map[string]int) {
	rows, summary, _ := clustertest.RunSweep[service.SweepRow](url, req, nil)
	byCache = map[string]int{}
	for _, row := range rows {
		if row.Error != "" {
			fail("sweep row %s: %s", row.Name, row.Error)
		}
		byCache[row.Cache]++
	}
	if summary.Errors != 0 {
		fail("sweep summary %+v does not match %d clean rows", summary, len(rows))
	}
	return rows, byCache
}

func main() {
	// 1. Load and validate the declarative workload spec. The spec is
	// data: it could as well have arrived over the wire or from a
	// scenario store.
	raw, err := os.ReadFile(filepath.Join("examples", "spec_service", "spec.json"))
	if err != nil {
		fail("run from the repository root: %v", err)
	}
	sp, err := spec.Decode(raw)
	if err != nil {
		fail("%v", err)
	}
	if err := sp.Validate(); err != nil {
		fail("%v", err)
	}
	hash, _ := sp.Hash()
	fmt.Printf("spec %q — content hash %s\n", sp.Name, hash[:16])

	// 2. Start the service with a disk-backed result store. In
	// production this is `go run ./cmd/simd -store DIR`; here it runs
	// in-process on an ephemeral port over a temp directory.
	storeDir, err := os.MkdirTemp("", "simstore")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(storeDir)
	srv, err := service.New(service.Options{StoreDir: storeDir})
	if err != nil {
		fail("%v", err)
	}
	ts := httptest.NewServer(srv.Handler())

	// 3. Compare the spec on both models. First submission simulates.
	req := map[string]any{"spec": sp}
	status, cache, body := post(ts.URL+"/compare", req)
	if status != http.StatusOK {
		fail("compare: status %d: %s", status, body)
	}
	var row service.CompareResponse
	json.Unmarshal(body, &row)
	fmt.Printf("first  /compare: X-Cache=%-5s RTL=%d TL=%d diff=%.2f%%\n",
		cache, row.RTLCycles, row.TLMCycles, row.DiffPct)
	if cache != "miss" {
		fail("first compare X-Cache = %q, want miss", cache)
	}

	// 4. Submit the identical spec again: served from the cache,
	// byte-identical, no second simulation.
	_, cache2, body2 := post(ts.URL+"/compare", req)
	fmt.Printf("second /compare: X-Cache=%-5s byte-identical=%v\n", cache2, bytes.Equal(body, body2))
	if cache2 != "hit" || !bytes.Equal(body, body2) {
		fail("cached replay broken: X-Cache=%q identical=%v", cache2, bytes.Equal(body, body2))
	}
	c := srv.CountersSnapshot()
	fmt.Printf("service counters: jobs=%d cache_hits=%d coalesced=%d\n", c.Jobs, c.CacheHits, c.Coalesced)

	// 5. The built-in scenario library is served by name.
	_, _, scenarios := clustertest.Get(ts.URL + "/scenarios")
	var infos []service.ScenarioInfo
	json.Unmarshal(scenarios, &infos)
	fmt.Printf("%d library scenarios; e.g. %s (%s)\n", len(infos), infos[0].Name, infos[0].Hash[:16])

	_, _, body3 := post(ts.URL+"/run", map[string]any{"scenario": infos[0].Name, "model": "tl"})
	var run service.RunResponse
	json.Unmarshal(body3, &run)
	fmt.Printf("ran %q by name on %s: %d cycles, completed=%v\n", run.Name, run.Model, run.Cycles, run.Completed)
	if run.Cycles == 0 || !run.Completed {
		fail("library run implausible: %+v", run)
	}

	// 6. Sweep a 4×2 parameter grid (write-buffer depth × bank
	// interleaving). Rows stream back as NDJSON while the grid
	// simulates on the farm.
	gridReq := clustertest.Grid8(sp, "demo/grid", "tl")
	rows, byCache := runSweep(ts.URL, gridReq)
	fmt.Printf("swept %d variants: dispositions %v\n", len(rows), byCache)
	if len(rows) != 8 {
		fail("sweep produced %d rows, want 8", len(rows))
	}
	if byCache["miss"] != 8 {
		fail("cold sweep dispositions %v, want 8 misses", byCache)
	}

	// 7. Restart the service over the same store directory: the whole
	// grid — and the earlier compare — replay from disk, byte-identical,
	// with zero new simulations.
	ts.Close()
	srv.Close()
	srv2, err := service.New(service.Options{StoreDir: storeDir})
	if err != nil {
		fail("%v", err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	rows2, byCache2 := runSweep(ts2.URL, gridReq)
	_, cache3, body4 := post(ts2.URL+"/compare", req)
	fmt.Printf("after restart: sweep dispositions %v, /compare X-Cache=%s\n", byCache2, cache3)
	if len(rows2) != 8 || byCache2["hit"] != 8 {
		fail("restarted sweep dispositions %v, want 8 hits", byCache2)
	}
	// Cold rows arrive in completion order, warm rows in grid order;
	// match them by spec hash.
	coldByHash := map[string]json.RawMessage{}
	for _, r := range rows {
		coldByHash[r.Hash] = r.Result
	}
	for _, r := range rows2 {
		if !bytes.Equal(r.Result, coldByHash[r.Hash]) {
			fail("restarted sweep row %s differs", r.Name)
		}
	}
	if cache3 != "hit" || !bytes.Equal(body4, body) {
		fail("restarted compare not served from store: X-Cache=%q", cache3)
	}
	if jobs := srv2.CountersSnapshot().Jobs; jobs != 0 {
		fail("restarted server re-simulated %d jobs", jobs)
	}

	// 8. Analyze the same grid through POST /sweep/analyze: one JSON
	// document — argmin, top-K, per-axis summaries and a Pareto
	// frontier — computed from the same cached results (still zero new
	// simulations), with the best variant agreeing with an argmin
	// computed by hand from the raw sweep rows.
	status, _, analysisBody := post(ts2.URL+"/sweep/analyze",
		service.AnalyzeRequest{SweepRequest: gridReq, Request: clustertest.Analysis(3)})
	if status != http.StatusOK {
		fail("analyze: status %d: %s", status, analysisBody)
	}
	var doc agg.Analysis
	if err := json.Unmarshal(analysisBody, &doc); err != nil {
		fail("decoding analysis: %v", err)
	}
	if doc.Variants != 8 || doc.Analyzed != 8 || doc.Incomplete {
		fail("analysis incomplete over a healthy grid: %s", analysisBody)
	}
	wantBest, wantCycles := "", float64(0)
	for _, r := range rows2 {
		var res service.RunResponse
		if err := json.Unmarshal(r.Result, &res); err != nil {
			fail("%v", err)
		}
		c := float64(res.Cycles)
		if wantBest == "" || c < wantCycles || (c == wantCycles && r.Hash < wantBest) {
			wantBest, wantCycles = r.Hash, c
		}
	}
	if doc.Best == nil || doc.Best.Hash != wantBest || doc.Best.Value != wantCycles {
		fail("analysis best %+v disagrees with row argmin (%s, %v)", doc.Best, wantBest, wantCycles)
	}
	if len(doc.Top) != 3 || len(doc.Groups) != 2 || doc.Frontier == nil || len(doc.Frontier.Points) == 0 {
		fail("analysis document thin: %s", analysisBody)
	}
	if jobs := srv2.CountersSnapshot().Jobs; jobs != 0 {
		fail("analyze re-simulated %d jobs", jobs)
	}
	fmt.Printf("analysis: best %s=%g at %s, %d frontier points, incomplete=%v\n",
		doc.Metric, doc.Best.Value, doc.Best.Name, len(doc.Frontier.Points), doc.Incomplete)

	// 9. Observability. A request that misses carries a per-stage
	// X-Timing breakdown and echoes the caller's X-Request-ID; the
	// /metrics scrape shows the restart-replay as disk_hit tier counts
	// (8 sweep rows + the compare), not re-simulations.
	hstatus, hhdr, _ := clustertest.Do(http.MethodPost, ts2.URL+"/run",
		map[string]any{"scenario": infos[0].Name, "model": "rtl"}, http.Header{obs.RequestIDHeader: {"smoke-trace-1"}})
	if hstatus != http.StatusOK || hhdr.Get("X-Cache") != "miss" {
		fail("traced run: status %d X-Cache %q, want a 200 miss", hstatus, hhdr.Get("X-Cache"))
	}
	if rid := hhdr.Get(obs.RequestIDHeader); rid != "smoke-trace-1" {
		fail("request ID not echoed: %q", rid)
	}
	timing := hhdr.Get(service.TimingHeader)
	if !strings.Contains(timing, "queue=") || !strings.Contains(timing, "simulate=") || !strings.Contains(timing, "encode=") {
		fail("miss response X-Timing %q lacks the per-stage breakdown", timing)
	}

	fams := clustertest.ScrapeMetrics(ts2.URL)
	tier := func(name string) int {
		return clustertest.SumCounter(fams, "simd_cache_requests_total", "tier", name)
	}
	diskHits := tier("disk_hit")
	if diskHits < 8 {
		fail("disk_hit tier = %d after restart replay, want >= 8", diskHits)
	}
	if up := obs.Find(fams, "simd_http_requests_total", "endpoint", "/run", "code", "200"); len(up) != 1 {
		fail("simd_http_requests_total{/run,200} missing: %v", up)
	}
	fmt.Printf("metrics: tiers disk_hit=%d memory_hit=%d miss=%d; X-Timing %q\n",
		diskHits, tier("memory_hit"), tier("miss"), timing)
	fmt.Println("smoke OK: streaming sweep + disk store replay + grid analysis + metrics/tracing verified")
}
