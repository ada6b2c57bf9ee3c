package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
)

// analyzeRequest is the canonical 8-variant grid plus an analysis
// selector: argmin cycles, top-3, cycles-vs-throughput frontier.
func analyzeRequest(salt int) map[string]any {
	req := gridRequest(salt)
	req["metric"] = "cycles"
	req["top_k"] = 3
	req["frontier"] = map[string]any{"x": "cycles", "y": "throughput", "y_objective": "max"}
	return req
}

func TestAnalyzeEndpointAggregatesGrid(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 4, Queue: 64})

	// Run the grid as a plain sweep first: the analysis must agree
	// with an argmin computed by hand from the raw rows, and must be
	// served from the same result space (zero extra jobs).
	_, rows, _ := sweepBody(t, ts.URL, gridRequest(40))
	wantBest := ""
	wantCycles := float64(0)
	for _, row := range rows {
		var res RunResponse
		if err := json.Unmarshal(row.Result, &res); err != nil {
			t.Fatal(err)
		}
		c := float64(res.Cycles)
		if wantBest == "" || c < wantCycles || (c == wantCycles && row.Hash < wantBest) {
			wantBest, wantCycles = row.Hash, c
		}
	}
	jobsAfterSweep := srv.CountersSnapshot().Jobs

	status, hdr, body := post(t, ts.URL+"/sweep/analyze", analyzeRequest(40))
	if status != http.StatusOK {
		t.Fatalf("analyze status %d: %s", status, body)
	}
	if hdr.Get("X-Sweep-Variants") != "8" || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("headers %v", hdr)
	}
	var doc agg.Analysis
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Variants != 8 || doc.Analyzed != 8 || doc.Incomplete || len(doc.Failed) != 0 {
		t.Fatalf("completeness %+v", doc)
	}
	if doc.Best == nil || doc.Best.Hash != wantBest || doc.Best.Value != wantCycles {
		t.Fatalf("best %+v, want hash %s value %v", doc.Best, wantBest, wantCycles)
	}
	if len(doc.Top) != 3 || doc.Top[0].Hash != wantBest {
		t.Fatalf("top %+v", doc.Top)
	}
	if len(doc.Groups) != 2 || doc.Groups[0].Param != "write_buffer_depth" || doc.Groups[1].Param != "bi_enabled" {
		t.Fatalf("groups %+v", doc.Groups)
	}
	for _, g := range doc.Groups {
		for _, cell := range g.Values {
			if cell.Count == 0 || cell.Mean == nil {
				t.Fatalf("axis %s cell %+v empty on a full grid", g.Param, cell)
			}
		}
	}
	if doc.Frontier == nil || len(doc.Frontier.Points) == 0 {
		t.Fatal("frontier missing")
	}
	if jobs := srv.CountersSnapshot().Jobs; jobs != jobsAfterSweep {
		t.Fatalf("analyze re-simulated: jobs %d -> %d", jobsAfterSweep, jobs)
	}

	// The document is deterministic: a repeat analysis (all cache
	// hits, arbitrary completion order) is byte-identical.
	status2, _, body2 := post(t, ts.URL+"/sweep/analyze", analyzeRequest(40))
	if status2 != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("repeat analysis differs (status %d):\n%s\n%s", status2, body, body2)
	}
}

func TestAnalyzeColdGridComputesAndWarmsCache(t *testing.T) {
	// A cold analyze runs the grid itself (sharing the pool/cache
	// path) and leaves the rows warm for a subsequent /sweep.
	srv, ts := newTestServer(t, Options{Workers: 4, Queue: 64})
	status, _, body := post(t, ts.URL+"/sweep/analyze", analyzeRequest(41))
	if status != http.StatusOK {
		t.Fatalf("analyze status %d: %s", status, body)
	}
	if jobs := srv.CountersSnapshot().Jobs; jobs != 8 {
		t.Fatalf("cold analyze ran %d jobs, want 8", jobs)
	}
	_, rows, _ := sweepBody(t, ts.URL, gridRequest(41))
	for _, row := range rows {
		if row.Cache != "hit" {
			t.Fatalf("post-analyze sweep row %s disposition %q, want hit", row.Name, row.Cache)
		}
	}
}

func TestAnalyzeCompareModel(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	req := map[string]any{
		"base":  testSpec(42),
		"model": "compare",
		"axes": []map[string]any{
			{"param": "pipelining", "values": []bool{true, false}},
		},
		"metric": "abs_diff_pct",
	}
	status, _, body := post(t, ts.URL+"/sweep/analyze", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var doc agg.Analysis
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Analyzed != 2 || doc.Best == nil || doc.Metric != "abs_diff_pct" {
		t.Fatalf("doc %+v", doc)
	}
}

func TestAnalyzeRequestErrors(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		req  map[string]any
		want string
	}{
		{"unknown metric", withField(analyzeRequest(43), "metric", "warp"), "unknown metric"},
		{"compare metric on run model", withField(analyzeRequest(43), "metric", "rtl_cycles"), "unknown metric"},
		{"bad objective", withField(analyzeRequest(43), "objective", "best"), "unknown objective"},
		{"bad frontier", withField(analyzeRequest(43), "frontier", map[string]any{"x": "cycles"}), "both x and y"},
		{"no base", map[string]any{"metric": "cycles"}, "base spec or a scenario"},
		{"bad model", withField(analyzeRequest(43), "model", "spice"), "unknown model"},
	}
	for _, c := range cases {
		status, _, body := post(t, ts.URL+"/sweep/analyze", c.req)
		if status != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: status %d body %s", c.name, status, body)
		}
	}
	// Selector validation happens BEFORE the grid costs anything.
	if jobs := srv.CountersSnapshot().Jobs; jobs != 0 {
		t.Fatalf("bad requests burned %d simulations", jobs)
	}
	resp, err := http.Get(ts.URL + "/sweep/analyze")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /sweep/analyze: %d", resp.StatusCode)
	}
}

// withField copies a request map with one field overridden.
func withField(req map[string]any, key string, v any) map[string]any {
	out := make(map[string]any, len(req)+1)
	for k, val := range req {
		out[k] = val
	}
	out[key] = v
	return out
}

func TestRetryWaitParsesAndClamps(t *testing.T) {
	cases := []struct {
		secs int
		want time.Duration
	}{
		{2, 2 * time.Second},          // honored verbatim
		{0, MinRetryWait},             // "soon", not busy-loop
		{1, time.Second},              // the idle-server base
		{60, MaxRetryWait},            // capped
		{-3, MinRetryWait},            // negative nonsense: floored, never a busy-loop
		{math.MaxInt32, MaxRetryWait}, // far past the cap, even for a 32-bit int: no overflow into the floor
	}
	for _, c := range cases {
		if got := RetryWaitSeconds(c.secs); got != c.want {
			t.Errorf("RetryWaitSeconds(%d) = %v, want %v", c.secs, got, c.want)
		}
	}
}
