package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/sweep"
)

// stealGrid is a 32-variant grid — big enough that a concurrency-
// skewed cluster reliably work-steals.
func stealGrid(salt int) map[string]any {
	return map[string]any{
		"base":  testSpec(salt),
		"name":  "grid/steal",
		"model": "tl",
		"axes": []map[string]any{
			{"param": "write_buffer_depth", "values": []int{0, 2, 4, 8}},
			{"param": "bi_enabled", "values": []bool{true, false}},
			{"param": "count", "values": []int{10, 11, 12, 13}},
		},
	}
}

// expandStealGrid mirrors the router's expansion of stealGrid so a
// test can map a streamed row's hash back to the variant spec.
func expandStealGrid(t *testing.T, salt int) []sweep.Variant {
	t.Helper()
	return sweep.MustExpand(sweep.Grid{
		Name: "grid/steal", Base: testSpec(salt),
		Axes: []sweep.Axis{
			{Param: sweep.ParamWriteBufferDepth, Values: []sweep.Value{{V: 0}, {V: 2}, {V: 4}, {V: 8}}},
			{Param: sweep.ParamBIEnabled, Values: []sweep.Value{{V: true}, {V: false}}},
			{Param: sweep.ParamCount, Values: []sweep.Value{{V: 10}, {V: 11}, {V: 12}, {V: 13}}},
		},
	})
}

// sortRowsByIndex orders streamed rows by grid coordinate — router
// streams emit in completion order, which set comparisons must not
// depend on.
func sortRowsByIndex(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
}

// readRouterStream reads any router NDJSON sweep stream (POST body or
// GET resume) into rows plus the terminal summary.
func readRouterStream(t *testing.T, resp *http.Response) ([]Row, service.SweepSummary, bool) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	var rows []Row
	summary, done, err := service.DecodeSweepStream(resp.Body, func(line []byte) error {
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			return err
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, summary, done
}

func TestSweepWorkStealingWritesBackToOwner(t *testing.T) {
	// A 2-shard cluster with an 8:1 worker skew: the fast shard drains
	// its own queue and must steal from the slow owner's backlog. The
	// stream must still be exactly the grid, stolen rows must carry
	// the owner->thief tag, and every stolen envelope must land in the
	// OWNER's store byte-identically — ownership places the cache,
	// stealing only moves the compute.
	_, slowTS := newBackend(t, service.Options{Workers: 1, Queue: 64})
	_, fastTS := newBackend(t, service.Options{Workers: 8, Queue: 64})
	backends := []*httptest.Server{slowTS, fastTS}
	rt, err := New(Options{Backends: []string{slowTS.URL, fastTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	hdr, rows, sum, done := readSweep(t, front.URL, stealGrid(70))
	if !done || sum.Errors != 0 {
		t.Fatalf("stream done=%v summary=%+v", done, sum)
	}
	if got := hdr.Get("X-Sweep-Variants"); got != "32" {
		t.Fatalf("X-Sweep-Variants = %q", got)
	}
	if hdr.Get(service.SweepIDHeader) == "" {
		t.Fatalf("missing %s on router sweep", service.SweepIDHeader)
	}

	// Union of streamed rows is exactly the grid: 32 indices, no
	// duplicates, no gaps, no errors.
	if len(rows) != 32 {
		t.Fatalf("%d rows, want 32", len(rows))
	}
	seen := make(map[int]bool, 32)
	for _, row := range rows {
		if row.Error != "" {
			t.Fatalf("row %d error: %s", row.Index, row.Error)
		}
		if row.Index < 0 || row.Index >= 32 || seen[row.Index] {
			t.Fatalf("index %d out of range or duplicated", row.Index)
		}
		seen[row.Index] = true
	}

	stolen := 0
	byHash := make(map[string]sweep.Variant)
	for _, v := range expandStealGrid(t, 70) {
		byHash[v.Hash] = v
	}
	for _, row := range rows {
		if row.Stolen == "" {
			continue
		}
		stolen++
		var owner, thief int
		if _, err := fmt.Sscanf(row.Stolen, "%d->%d", &owner, &thief); err != nil ||
			owner == thief || owner < 0 || owner > 1 || thief < 0 || thief > 1 {
			t.Fatalf("malformed stolen tag %q", row.Stolen)
		}
		if row.Shard != thief {
			t.Fatalf("stolen row served by shard %d but tagged thief %d", row.Shard, thief)
		}
		v, ok := byHash[row.Hash]
		if !ok {
			t.Fatalf("stolen row hash %q not in the expanded grid", row.Hash)
		}
		// The write-back must have seeded the owner's store: a direct
		// /run against the owner is a hit with the row's exact bytes.
		status, h, body := post(t, backends[owner].URL+"/run", map[string]any{"spec": v.Spec, "model": "tl"})
		if status != http.StatusOK {
			t.Fatalf("owner replay status %d: %s", status, body)
		}
		if h.Get("X-Cache") != "hit" {
			t.Fatalf("owner replay of stolen variant %d was %q, want hit (write-back missing)",
				row.Index, h.Get("X-Cache"))
		}
		if !bytes.Equal(body, row.Result) {
			t.Fatalf("owner's stored envelope differs from the streamed row:\n%s\n%s", body, row.Result)
		}
	}
	if stolen == 0 {
		t.Fatal("8:1 concurrency skew produced zero steals")
	}

	// Warm re-sweep: every variant is now stored on its owner (write-
	// backs included), so the thief's pre-steal probe must convert
	// every would-be steal into an owner-served cache hit. Stealing is
	// for misses only — a warm grid replays owner-placed and untagged.
	_, warm, warmSum, warmDone := readSweep(t, front.URL, stealGrid(70))
	if !warmDone || warmSum.Errors != 0 || len(warm) != 32 {
		t.Fatalf("warm re-sweep done=%v rows=%d summary=%+v", warmDone, len(warm), warmSum)
	}
	for _, row := range warm {
		if row.Stolen != "" {
			t.Fatalf("warm row %d stolen (%s) despite the owner holding the bytes — probe skipped?", row.Index, row.Stolen)
		}
		if row.Cache != "hit" {
			t.Fatalf("warm row %d disposition %q, want hit", row.Index, row.Cache)
		}
		if want := OwnerID(row.Hash, ids(2)); row.Shard != want {
			t.Fatalf("warm row %d served by shard %d, owner %d", row.Index, row.Shard, want)
		}
	}

	// The thief's steal counter made it into the metric vocabulary.
	status, _, metrics := get(t, front.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	if !strings.Contains(string(metrics), "simd_router_steals_total") {
		t.Fatal("simd_router_steals_total missing from /metrics")
	}
}

// get issues a GET and returns status, headers, body.
func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func TestRouterSweepStatusResumeAndStoredAnalyze(t *testing.T) {
	_, front := newCluster(t, 2, service.Options{Workers: 2, Queue: 64})
	req := gridRequest(71)

	hdr, rows, _, done := readSweep(t, front, req)
	if !done || len(rows) != 8 {
		t.Fatalf("sweep done=%v rows=%d", done, len(rows))
	}
	id := hdr.Get(service.SweepIDHeader)
	if id == "" {
		t.Fatalf("missing %s", service.SweepIDHeader)
	}

	// Cluster-wide status: the router finds the manifest on whichever
	// shard owns the sweep id.
	status, shdr, body := get(t, front+"/sweep/"+id)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if shdr.Get(service.SweepIDHeader) != id {
		t.Fatalf("status header %q", shdr.Get(service.SweepIDHeader))
	}
	var st service.SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.DoneCount != 8 || st.Total != 8 {
		t.Fatalf("status %+v, want complete 8/8", st)
	}

	// Resume past index 5: exactly indices 6 and 7, twice (duplicate
	// offsets are idempotent replay).
	for round := 0; round < 2; round++ {
		resp, err := http.Get(front + "/sweep/" + id + "/resume?after=5")
		if err != nil {
			t.Fatal(err)
		}
		rrows, rsum, rdone := readRouterStream(t, resp)
		if !rdone || rsum.Rows != 2 || len(rrows) != 2 {
			t.Fatalf("round %d resume: done=%v summary=%+v rows=%d", round, rdone, rsum, len(rrows))
		}
		sortRowsByIndex(rrows)
		for i, row := range rrows {
			if row.Index != 6+i {
				t.Fatalf("round %d resume row %d index %d", round, i, row.Index)
			}
		}
	}

	// Unknown id: 404 with the re-POST hint.
	status, _, body = get(t, front+"/sweep/"+strings.Repeat("ab", 32))
	if status != http.StatusNotFound || !strings.Contains(string(body), "re-POST") {
		t.Fatalf("unknown id: %d %s", status, body)
	}
	status, _, body = get(t, front+"/sweep/"+strings.Repeat("ab", 32)+"/resume?after=0")
	if status != http.StatusNotFound {
		t.Fatalf("unknown id resume: %d %s", status, body)
	}

	// Stored analyze against the bare id is byte-identical to the
	// inline grid analyze — zero re-simulation, same document.
	inline := analyzeRequest(71)
	status, _, want := post(t, front+"/sweep/analyze", inline)
	if status != http.StatusOK {
		t.Fatalf("inline analyze status %d: %s", status, want)
	}
	sel := map[string]any{
		"metric": "cycles", "top_k": 3,
		"frontier": map[string]any{"x": "cycles", "y": "throughput", "y_objective": "max"},
	}
	status, ahdr, got := post(t, front+"/sweep/"+id+"/analyze", sel)
	if status != http.StatusOK {
		t.Fatalf("stored analyze status %d: %s", status, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("stored analyze differs from inline:\n%s\n%s", want, got)
	}
	if ahdr.Get(service.SweepIDHeader) != id {
		t.Fatalf("stored analyze id header %q", ahdr.Get(service.SweepIDHeader))
	}
}

func TestRouterResumeSkewedOffsetsMatchByteForByte(t *testing.T) {
	// The same offset resumed through the router and against a fresh
	// single-process server must agree row for row — resume is replay
	// of a deterministic grid, not shard-local bookkeeping.
	_, singleTS := newBackend(t, service.Options{Workers: 2, Queue: 64})
	_, front := newCluster(t, 2, service.Options{Workers: 2, Queue: 64})
	req := gridRequest(72)

	sh, srows, _, _ := readSweep(t, front, req)
	id := sh.Get(service.SweepIDHeader)
	if len(srows) != 8 {
		t.Fatalf("cluster sweep rows %d", len(srows))
	}
	// Run the same grid single-process so both sides hold the results.
	st1, h1, b1 := post(t, singleTS.URL+"/sweep", req)
	if st1 != http.StatusOK {
		t.Fatalf("single sweep status %d: %s", st1, b1)
	}
	if h1.Get(service.SweepIDHeader) != id {
		t.Fatalf("tiers disagree on sweep id: %q vs %q", h1.Get(service.SweepIDHeader), id)
	}

	resp, err := http.Get(front + "/sweep/" + id + "/resume?after=3")
	if err != nil {
		t.Fatal(err)
	}
	clusterRows, _, cdone := readRouterStream(t, resp)
	resp, err = http.Get(singleTS.URL + "/sweep/" + id + "/resume?after=3")
	if err != nil {
		t.Fatal(err)
	}
	singleRows, _, sdone := readRouterStream(t, resp)
	if !cdone || !sdone || len(clusterRows) != 4 || len(singleRows) != 4 {
		t.Fatalf("resume shapes: cluster %d/%v single %d/%v", len(clusterRows), cdone, len(singleRows), sdone)
	}
	// The router streams rows in completion order; compare the sets
	// by grid coordinate.
	sortRowsByIndex(clusterRows)
	sortRowsByIndex(singleRows)
	for i := range clusterRows {
		c, s := clusterRows[i], singleRows[i]
		if c.Index != s.Index || c.Hash != s.Hash || !bytes.Equal(c.Result, s.Result) {
			t.Fatalf("resume row %d differs across tiers:\nindex %d/%d hash %s/%s", i, c.Index, s.Index, c.Hash, s.Hash)
		}
	}
}

// TestVariantRequestIsTheRunRequest pins the per-variant backend body
// the router assembles around the walk's canonical bytes to what
// encoding the request struct produced: same bytes, one encode fewer.
func TestVariantRequestIsTheRunRequest(t *testing.T) {
	vs := sweep.MustExpand(sweep.Grid{Base: testSpec(71), Axes: []sweep.Axis{
		{Param: sweep.ParamWriteBufferDepth, Values: []sweep.Value{{V: 0}, {V: 8}}},
	}})
	for _, v := range vs {
		for _, model := range []string{"", "tl", "rtl"} {
			want, err := json.Marshal(service.RunRequest{Spec: &v.Spec, Model: model})
			if err != nil {
				t.Fatal(err)
			}
			if got := variantRequest(v, model); !bytes.Equal(got, want) {
				t.Fatalf("model %q:\n got %s\nwant %s", model, got, want)
			}
		}
	}
}

func TestRouterRejectsManifestBeyondTheVariantBound(t *testing.T) {
	// A backend (an adopted external URL, say) answering GET /sweep/{id}
	// with a grid size past sweep.MaxVariants must be walked past like
	// any other corrupt copy: the bitmaps are sized from total, so
	// trusting it means allocating whatever the backend names.
	id := strings.Repeat("ab", 32)
	for _, total := range []int64{sweep.MaxVariants + 1, 100_000_000_000} {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/sweep/"+id {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"version":1,"id":%q,"request":{"scenario":"seq/read-dominant","axes":[]},"total":%d,"done":null,"failed":null}`, id, total)
		}))
		rt, err := New(Options{Backends: []string{stub.URL}, SweepConcurrency: 1})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(rt.Handler())
		for _, path := range []string{"/sweep/" + id, "/sweep/" + id + "/resume"} {
			if status, _, body := get(t, front.URL+path); status != http.StatusNotFound {
				t.Fatalf("GET %s with a stored total of %d: status %d, want the manifest refused (404): %.200s", path, total, status, body)
			}
		}
		front.Close()
		rt.Close()
		stub.Close()
	}
}
