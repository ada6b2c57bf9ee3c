// Package clustertest is what the examples/*_service smoke drivers
// share: failing the drill, finding a simd binary, the standard drill
// workloads and grids, and the typed calls every driver makes against
// a server or a cluster (POST, sweep stream, analyze, healthz, metrics
// scrape). Drill logic and every assertion stay in the mains; nothing
// here decides what a drill requires, only how it asks.
//
// Every helper fails the drill (Fail) on a transport or protocol
// error: a smoke has no recovery path, and a helper that returned the
// error would only have each caller re-spell the same exit.
package clustertest

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/agg"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// Fail aborts the drill with a message prefixed by the running
// driver's name; CI treats any nonzero exit as a smoke failure.
func Fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, filepath.Base(os.Args[0])+": "+format+"\n", args...)
	os.Exit(1)
}

// SimdFlag registers the drivers' common -simd flag; the caller runs
// flag.Parse (after registering any flags of its own).
func SimdFlag() *string {
	return flag.String("simd", "", "prebuilt simd binary (empty = go build it)")
}

// Workspace creates the drill's temp directory (the caller removes it)
// and resolves the simd binary to run: simd when the driver was handed
// one, otherwise a fresh `go build ./cmd/simd` inside the directory.
func Workspace(prefix, simd string) (tmp, bin string) {
	tmp, err := os.MkdirTemp("", prefix)
	if err != nil {
		Fail("%v", err)
	}
	if simd != "" {
		return tmp, simd
	}
	bin = filepath.Join(tmp, "simd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/simd").CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		Fail("building simd: %v\n%s", err, out)
	}
	return tmp, bin
}

// Workload is the drills' standard two-master workload — a sequential
// writer-reader beside a periodic stream — scaled by count
// transactions, so a drill picks how heavy one variant is.
func Workload(name string, count int) spec.Spec {
	return spec.Spec{
		SpecVersion: spec.Version,
		Name:        name,
		Params:      config.Default(2),
		Masters: []spec.GenSpec{
			{Kind: spec.KindSequential, Base: 0, Beats: 8, Count: count, Gap: 2, WrapBytes: 0x40000},
			{Kind: spec.KindStream, Base: 0x80000, Beats: 4, Period: 40, Count: count / 2, WrapBytes: 0x20000},
		},
	}
}

// TinyWorkload is deliberately tiny — two short generators on the
// 2-master platform — so ten thousand RTL simulations of it stay a
// smoke test, not a benchmark.
func TinyWorkload(name string) spec.Spec {
	return spec.Spec{
		SpecVersion: spec.Version,
		Name:        name,
		Params:      config.Default(2),
		Masters: []spec.GenSpec{
			{Kind: spec.KindSequential, Base: 0, Beats: 2, Count: 4, Gap: 1},
			{Kind: spec.KindStream, Base: 0x80000, Beats: 2, Period: 8, Count: 2},
		},
	}
}

// Ints returns the axis values from, from+1, ..., from+n-1.
func Ints(n, from int) []any {
	vals := make([]any, n)
	for i := range vals {
		vals[i] = from + i
	}
	return vals
}

// Grid8 is the 4 x 2 demonstration grid: write-buffer depth by bank
// interleaving.
func Grid8(base spec.Spec, name, model string) service.SweepRequest {
	return service.SweepRequest{Base: &base, Name: name, Model: model, Axes: []service.SweepAxis{
		{Param: sweep.ParamWriteBufferDepth, Values: []any{0, 2, 8, 16}},
		{Param: sweep.ParamBIEnabled, Values: []any{true, false}},
	}}
}

// Grid64 is the 4 x 2 x 2 x 2 x 2 fault-drill grid.
func Grid64(base spec.Spec, name, model string) service.SweepRequest {
	return service.SweepRequest{Base: &base, Name: name, Model: model, Axes: []service.SweepAxis{
		{Param: sweep.ParamWriteBufferDepth, Values: []any{0, 2, 4, 8}},
		{Param: sweep.ParamBIEnabled, Values: []any{true, false}},
		{Param: sweep.ParamClosedPage, Values: []any{true, false}},
		{Param: sweep.ParamFilters, Values: []any{"all", "rr-only"}},
		{Param: sweep.ParamPipelining, Values: []any{true, false}},
	}}
}

// Variants expands req locally, with the service's own grid resolution
// — the drill's routing-table truth: what the server will walk, so the
// locally computed owners are the ones the router routes to.
func Variants(req service.SweepRequest) []sweep.Variant {
	variants, err := service.ExpandSweepRequest(req, nil, 0)
	if err != nil {
		Fail("expanding grid %s locally: %v", req.Name, err)
	}
	return variants
}

// Analysis is the selector every drill analyzes with: best and top-K
// by cycles, plus the cycles/throughput Pareto frontier.
func Analysis(topK int) agg.Request {
	return agg.Request{
		Metric: "cycles", TopK: topK,
		Frontier: &agg.FrontierSpec{X: "cycles", Y: "throughput", YObjective: agg.ObjectiveMax},
	}
}

// Marshal JSON-encodes v.
func Marshal(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		Fail("%v", err)
	}
	return buf
}

// Do sends one request with a JSON body (nil: none) and the given
// extra headers, and returns status, headers and the whole body.
func Do(method, url string, body any, hdr http.Header) (int, http.Header, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(Marshal(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		Fail("%v", err)
	}
	for name, vals := range hdr {
		req.Header[name] = vals
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		Fail("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		Fail("%s %s: reading response: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header, out
}

// Post is Do for the common case: POST body, no extra headers.
func Post(url string, body any) (int, http.Header, []byte) {
	return Do(http.MethodPost, url, body, nil)
}

// Get is Do for a plain GET.
func Get(url string) (int, http.Header, []byte) {
	return Do(http.MethodGet, url, nil, nil)
}

// RunSweep streams the grid req through POST url/sweep, decoding every
// data row into R (service.SweepRow against a worker, shard.Row against
// a router) and invoking onRow (may be nil) as each arrives — the hook
// a drill kills or resizes from. It fails the drill on any truncation
// or on a summary that disagrees with the stream; error ROWS are the
// drill's to judge.
func RunSweep[R any](url string, req service.SweepRequest, onRow func(R)) (rows []R, summary service.SweepSummary, hdr http.Header) {
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(Marshal(req)))
	if err != nil {
		Fail("sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		Fail("sweep status %d: %s", resp.StatusCode, body)
	}
	summary, done, err := service.DecodeSweepStream(resp.Body, func(line []byte) error {
		var r R
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		rows = append(rows, r)
		if onRow != nil {
			onRow(r)
		}
		return nil
	})
	if err != nil {
		Fail("sweep stream: %v", err)
	}
	if !done {
		Fail("sweep stream ended without a terminal summary (%d rows) — TRUNCATED", len(rows))
	}
	if summary.Rows != len(rows) {
		Fail("summary says %d rows, stream carried %d", summary.Rows, len(rows))
	}
	return rows, summary, resp.Header
}

// PostAnalyze submits a /sweep/analyze request through the typed
// client — the same exported API frontends use — returning the decoded
// document plus the raw bytes for byte-identity checks.
func PostAnalyze(url string, req service.AnalyzeRequest) (agg.Analysis, []byte) {
	client := &service.Client{Base: url}
	doc, body, err := client.AnalyzeSweep(context.Background(), req)
	if err != nil {
		Fail("analyze against %s: %v (%s)", url, err, body)
	}
	return *doc, body
}

// ClusterHealth reads a router's aggregated healthz. The error is
// returned, not fatal: drills poll this while shards die and revive.
func ClusterHealth(url string) (shard.ClusterHealth, error) {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return shard.ClusterHealth{}, err
	}
	defer resp.Body.Close()
	var h shard.ClusterHealth
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// ScrapeMetrics fetches and parses a GET /metrics exposition.
func ScrapeMetrics(url string) []obs.Family {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		Fail("metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		Fail("metrics status %d", resp.StatusCode)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		Fail("parsing metrics: %v", err)
	}
	return fams
}

// SumCounter totals a counter family across the label sets matching
// labels (none: all of them).
func SumCounter(fams []obs.Family, name string, labels ...string) int {
	total := 0
	for _, v := range obs.Find(fams, name, labels...) {
		n, err := strconv.Atoi(v)
		if err != nil {
			Fail("counter %s value %q: %v", name, v, err)
		}
		total += n
	}
	return total
}
