package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/sweep"
)

// sweepLine distinguishes the two NDJSON line shapes: data rows never
// set done, the terminal summary always does.
type sweepLine struct {
	SweepRow
	Done bool `json:"done"`
}

// sweepBody posts a /sweep request, decodes every NDJSON data row and
// requires the stream to end with a well-formed terminal summary —
// the completion marker whose absence means truncation.
func sweepBody(t *testing.T, url string, req any) (http.Header, []SweepRow, SweepSummary) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var rows []SweepRow
	summary, done, err := DecodeSweepStream(resp.Body, func(line []byte) error {
		var row SweepRow
		if err := json.Unmarshal(line, &row); err != nil {
			return err
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("stream ended without a terminal summary (%d rows) — truncated", len(rows))
	}
	errored := 0
	for _, r := range rows {
		if r.Error != "" {
			errored++
		}
	}
	if summary.Rows != len(rows) || summary.Errors != errored {
		t.Fatalf("summary %+v vs %d rows / %d errors received", summary, len(rows), errored)
	}
	return resp.Header, rows, summary
}

// gridRequest is the canonical 8-variant test grid (4 depths × 2
// interleaving settings) over the small test workload.
func gridRequest(salt int) map[string]any {
	return map[string]any{
		"base":  testSpec(salt),
		"name":  "grid/test",
		"model": "tl",
		"axes": []map[string]any{
			{"param": "write_buffer_depth", "values": []int{0, 2, 4, 8}},
			{"param": "bi_enabled", "values": []bool{true, false}},
		},
	}
}

func TestSweepGridStreamsEveryVariant(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 4, Queue: 64})
	hdr, rows, _ := sweepBody(t, ts.URL, gridRequest(20))
	if got := hdr.Get("X-Sweep-Variants"); got != "8" {
		t.Fatalf("X-Sweep-Variants = %q", got)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	seenHash := map[string]bool{}
	seenIndex := map[int]bool{}
	for _, row := range rows {
		if row.Error != "" {
			t.Fatalf("row %s: %s", row.Name, row.Error)
		}
		if row.Cache != "miss" {
			t.Errorf("cold row %s disposition %q", row.Name, row.Cache)
		}
		if !strings.HasPrefix(row.Name, "grid/test/") {
			t.Errorf("row name %q", row.Name)
		}
		if seenHash[row.Hash] || seenIndex[row.Index] {
			t.Errorf("duplicate row %s (#%d)", row.Hash, row.Index)
		}
		seenHash[row.Hash] = true
		seenIndex[row.Index] = true
		var res RunResponse
		if err := json.Unmarshal(row.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Cycles == 0 || !res.Completed || res.Hash != row.Hash {
			t.Errorf("row %s implausible result %+v", row.Name, res)
		}
		depth, ok := row.Params["write_buffer_depth"].(float64)
		if !ok || depth < 0 || depth > 8 {
			t.Errorf("row %s params %v", row.Name, row.Params)
		}
	}
	if jobs := srv.CountersSnapshot().Jobs; jobs != 8 {
		t.Fatalf("cold grid ran %d jobs, want 8", jobs)
	}

	// A repeat of the whole grid is served entirely from the cache —
	// zero new simulations — and byte-identical per variant.
	first := map[string]json.RawMessage{}
	for _, row := range rows {
		first[row.Hash] = row.Result
	}
	_, rows2, _ := sweepBody(t, ts.URL, gridRequest(20))
	if len(rows2) != 8 {
		t.Fatalf("warm sweep %d rows", len(rows2))
	}
	for _, row := range rows2 {
		if row.Cache != "hit" {
			t.Errorf("warm row %s disposition %q", row.Name, row.Cache)
		}
		if !bytes.Equal(row.Result, first[row.Hash]) {
			t.Errorf("warm row %s differs from cold result", row.Name)
		}
	}
	if jobs := srv.CountersSnapshot().Jobs; jobs != 8 {
		t.Fatalf("warm grid grew jobs to %d", jobs)
	}
}

func TestSweepSharesResultSpaceWithRun(t *testing.T) {
	// A /sweep row and a direct /run of the identical variant spec are
	// one cache entry: the sweep warms /run and vice versa.
	srv, ts := newTestServer(t, Options{Workers: 2})
	vs := sweep.MustExpand(sweep.Grid{
		Name: "grid/test", Base: testSpec(21),
		Axes: []sweep.Axis{
			{Param: sweep.ParamWriteBufferDepth, Values: []sweep.Value{{V: 0}, {V: 2}, {V: 4}, {V: 8}}},
			{Param: sweep.ParamBIEnabled, Values: []sweep.Value{{V: true}, {V: false}}},
		},
	})
	if len(vs) != 8 {
		t.Fatalf("engine expanded %d variants", len(vs))
	}
	status, hdr, runBody := post(t, ts.URL+"/run", map[string]any{"spec": vs[3].Spec, "model": "tl"})
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("priming run: %d %q", status, hdr.Get("X-Cache"))
	}

	_, rows, _ := sweepBody(t, ts.URL, gridRequest(21))
	var primed *SweepRow
	for i := range rows {
		if rows[i].Hash == vs[3].Hash {
			primed = &rows[i]
		}
	}
	if primed == nil {
		t.Fatal("primed variant missing from sweep")
	}
	if primed.Cache != "hit" || !bytes.Equal(primed.Result, runBody) {
		t.Fatalf("primed row: cache %q, identical %v", primed.Cache, bytes.Equal(primed.Result, runBody))
	}
	if jobs := srv.CountersSnapshot().Jobs; jobs != 8 {
		t.Fatalf("jobs %d, want 8 (1 run + 7 sweep misses)", jobs)
	}
}

// TestSweepStreamsIncrementally proves rows arrive before the grid
// finishes: with the pool fully saturated by foreign jobs, the
// already-cached variants of a grid must stream back while the
// uncached one is still waiting for capacity.
func TestSweepStreamsIncrementally(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, Queue: 1})

	// Cache 7 of the 8 variants through direct runs.
	vs := sweep.MustExpand(sweep.Grid{
		Name: "grid/test", Base: testSpec(22),
		Axes: []sweep.Axis{
			{Param: sweep.ParamWriteBufferDepth, Values: []sweep.Value{{V: 0}, {V: 2}, {V: 4}, {V: 8}}},
			{Param: sweep.ParamBIEnabled, Values: []sweep.Value{{V: true}, {V: false}}},
		},
	})
	for _, v := range vs[:7] {
		status, _, body := post(t, ts.URL+"/run", map[string]any{"spec": v.Spec, "model": "tl"})
		if status != http.StatusOK {
			t.Fatalf("priming %s: %d %s", v.Spec.Name, status, body)
		}
	}

	// Saturate the pool: worker held, queue slot filled.
	block := make(chan struct{})
	started := make(chan struct{})
	w1, err := srv.sched.Submit("t", sched.Interactive, func() { close(started); <-block })
	if err != nil {
		t.Fatal(err)
	}
	<-started
	w2, err := srv.sched.Submit("t", sched.Interactive, func() {})
	if err != nil {
		t.Fatal(err)
	}

	buf, _ := json.Marshal(gridRequest(22))
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The 7 cached rows must stream while the pool is still blocked —
	// reading them would deadlock here if the server buffered the
	// whole grid before flushing.
	type scanned struct {
		row sweepLine
		err error
	}
	lines := make(chan scanned)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var row sweepLine
			err := json.Unmarshal(sc.Bytes(), &row)
			lines <- scanned{row, err}
		}
		close(lines)
	}()
	for i := 0; i < 7; i++ {
		select {
		case got, ok := <-lines:
			if !ok || got.err != nil {
				t.Fatalf("stream ended early at row %d (%v)", i, got.err)
			}
			if got.row.Cache != "hit" {
				t.Fatalf("blocked-pool row %d disposition %q", i, got.row.Cache)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cached rows did not stream while the pool was saturated")
		}
	}
	select {
	case got, ok := <-lines:
		if ok {
			t.Fatalf("uncached row arrived with the pool saturated: %+v", got.row)
		}
		t.Fatal("stream closed with the last variant unserved")
	case <-time.After(100 * time.Millisecond):
		// The last row is correctly still pending.
	}

	// Free the pool: the final row completes the stream, followed by
	// the terminal summary.
	close(block)
	w1()
	w2()
	got, ok := <-lines
	if !ok || got.err != nil {
		t.Fatalf("final row: %v (%v)", ok, got.err)
	}
	if got.row.Cache != "miss" || got.row.Error != "" {
		t.Fatalf("final row %+v", got.row)
	}
	last, ok := <-lines
	if !ok || !last.row.Done {
		t.Fatalf("terminal summary missing: %v %+v", ok, last.row)
	}
	if _, more := <-lines; more {
		t.Fatal("extra rows after the terminal summary")
	}
	// The sweep retried the saturated pool internally; none of those
	// attempts was a 503 response, so the backpressure metric must not
	// have moved.
	if got := srv.CountersSnapshot().Rejected; got != 0 {
		t.Fatalf("sweep retries inflated Rejected to %d", got)
	}
}

func TestSweepTerminatesWhenPoolCloses(t *testing.T) {
	// A closed pool is terminal, not "busy": the sweep must emit error
	// rows and end the stream instead of retrying 503s forever (which
	// would hang graceful shutdown on the in-flight handler).
	srv, ts := newTestServer(t, Options{Workers: 1, Queue: 4})
	srv.sched.Close()

	// The timeout is the hang detector: a sweep that retries the
	// closed pool forever trips it instead of wedging the test.
	client := &http.Client{Timeout: 10 * time.Second}
	buf, _ := json.Marshal(gridRequest(25))
	resp, err := client.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []SweepRow
	var summary SweepSummary
	done := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line sweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Done {
			json.Unmarshal(sc.Bytes(), &summary)
			done = true
			continue
		}
		rows = append(rows, line.SweepRow)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream never terminated cleanly: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, row := range rows {
		if row.Error == "" || !strings.Contains(row.Error, "shutting down") {
			t.Fatalf("row %s error %q", row.Name, row.Error)
		}
	}
	// Every row failed, and the terminal summary says so: a client can
	// tell "8 failures, complete" apart from a truncated stream.
	if !done || summary.Rows != 8 || summary.Errors != 8 {
		t.Fatalf("terminal summary: done=%v %+v", done, summary)
	}

	// The plain request path still answers a crisp 503, marked
	// X-Terminal so machine clients (the shard router) fail over
	// instead of backing off against a dying server.
	status, hdr, body := post(t, ts.URL+"/run", map[string]any{"spec": testSpec(25), "model": "tl"})
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "shutting down") {
		t.Fatalf("closed-pool /run: %d %s", status, body)
	}
	if hdr.Get("X-Terminal") != "1" {
		t.Fatalf("shutdown 503 without X-Terminal (headers %v)", hdr)
	}
}

func TestSweepRequestShapeErrors(t *testing.T) {
	// MaxSweepVariants is lowered so the "oversized" case trips the
	// configurable cap without enumerating 100k axis values.
	_, ts := newTestServer(t, Options{Workers: 1, MaxSweepVariants: 256})
	cases := []struct {
		name string
		req  any
		want string
	}{
		{"empty", map[string]any{}, "base spec or a scenario"},
		{"both", map[string]any{"base": testSpec(23), "scenario": "seq/read-dominant"}, "both"},
		{"unknown scenario", map[string]any{"scenario": "no/such"}, "unknown scenario"},
		{"bad model", map[string]any{"base": testSpec(23), "model": "spice"}, "unknown model"},
		{"unknown param", map[string]any{"base": testSpec(23),
			"axes": []map[string]any{{"param": "warp", "values": []int{1}}}}, "unknown sweep parameter"},
		{"no values", map[string]any{"base": testSpec(23),
			"axes": []map[string]any{{"param": "pipelining"}}}, "no values"},
		{"oversized", map[string]any{"base": testSpec(23),
			"axes": []map[string]any{{"param": "write_buffer_depth", "values": bigValues(300)}}},
			"variants"},
	}
	for _, c := range cases {
		buf, _ := json.Marshal(c.req)
		resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: status %d body %s", c.name, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sweep: %d", resp.StatusCode)
	}
}

// bigValues builds n distinct axis values.
func bigValues(n int) []int {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	return vals
}

func TestSweepCompareModelCarriesAccuracyDelta(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	req := map[string]any{
		"base":  testSpec(24),
		"name":  "grid/cmp",
		"model": "compare",
		"axes": []map[string]any{
			{"param": "pipelining", "values": []bool{true, false}},
		},
	}
	_, rows, _ := sweepBody(t, ts.URL, req)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		var res CompareResponse
		if err := json.Unmarshal(row.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.RTLCycles == 0 || res.TLMCycles == 0 || !res.Completed {
			t.Fatalf("row %s compare result %+v", row.Name, res)
		}
	}
}

func TestSweepScenarioBase(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	req := map[string]any{
		"scenario": "seq/read-dominant",
		"model":    "tl",
		"axes": []map[string]any{
			{"param": "write_buffer_depth", "values": []int{0, 8}},
		},
	}
	_, rows, _ := sweepBody(t, ts.URL, req)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if !strings.HasPrefix(row.Name, "seq/read-dominant/") || row.Error != "" {
			t.Fatalf("row %+v", row)
		}
	}
}

// --- disk store integration ---

func TestStoreServesAcrossRestartByteIdentically(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec(30)

	srv1, ts1 := newTestServer(t, Options{Workers: 2, StoreDir: dir})
	status, hdr, body1 := post(t, ts1.URL+"/run", map[string]any{"spec": sp, "model": "tl"})
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first run: %d %q", status, hdr.Get("X-Cache"))
	}
	if st := srv1.disk.StatsSnapshot(); st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("cold store counters %+v (disk probed more than once per request?)", st)
	}
	ts1.Close()
	srv1.Close()

	// A brand-new process over the same store directory: the result
	// replays from disk with hit semantics and zero simulations.
	srv2, ts2 := newTestServer(t, Options{Workers: 2, StoreDir: dir})
	status, hdr, body2 := post(t, ts2.URL+"/run", map[string]any{"spec": sp, "model": "tl"})
	if status != http.StatusOK {
		t.Fatalf("restarted run: %d", status)
	}
	if hdr.Get("X-Cache") != "hit" {
		t.Fatalf("restarted X-Cache = %q, want hit", hdr.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("restart lost byte identity:\n%s\n%s", body1, body2)
	}
	c := srv2.CountersSnapshot()
	if c.Jobs != 0 || c.StoreHits != 1 || c.CacheHits != 1 {
		t.Fatalf("restarted counters %+v", c)
	}
	// Disk probes are one-per-request: the restarted server's single
	// request cost exactly one store hit and no misses, and the
	// original cold request cost its store exactly one miss.
	if st := srv2.disk.StatsSnapshot(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("restarted store counters %+v", st)
	}
}

func TestStoreWorkerProbesItsStoreOncePerRequest(t *testing.T) {
	// A worker with a store keeps no other cache: CacheEntries is
	// ignored, so a one-entry cap evicts nothing. Every request makes
	// exactly one counted store probe — store Hits+Misses moves by one
	// per request, whichever path served it.
	srv, ts := newTestServer(t, Options{Workers: 2, CacheEntries: 1, StoreDir: t.TempDir()})
	if srv.cache != nil {
		t.Fatal("a worker with a store holds a memory LRU")
	}
	var hits, misses uint64
	expect := func(what string, h, m uint64) {
		t.Helper()
		hits, misses = hits+h, misses+m
		if st := srv.disk.StatsSnapshot(); st.Hits != hits || st.Misses != misses {
			t.Fatalf("after %s: store hits %d misses %d, want %d and %d", what, st.Hits, st.Misses, hits, misses)
		}
	}

	a := map[string]any{"spec": testSpec(31), "model": "tl"}
	b := map[string]any{"spec": testSpec(32), "model": "tl"}
	for i, c := range []struct {
		req   map[string]any
		cache string
	}{{a, "miss"}, {b, "miss"}, {a, "hit"}, {b, "hit"}} {
		status, hdr, _ := post(t, ts.URL+"/run", c.req)
		if status != http.StatusOK || hdr.Get("X-Cache") != c.cache {
			t.Fatalf("/run %d: %d %q, want %s", i, status, hdr.Get("X-Cache"), c.cache)
		}
		if c.cache == "hit" {
			expect("a warm /run", 1, 0)
		} else {
			expect("a cold /run", 0, 1)
		}
	}

	cl := &Client{Base: ts.URL}
	records, err := cl.RunBatch(context.Background(), false, [][]byte{runLine(t, 33, "tl"), runLine(t, 31, "tl")}, nil)
	if err != nil || len(records) != 2 || records[0].Cache != "miss" || records[1].Cache != "hit" {
		t.Fatalf("batch: %v %+v", err, records)
	}
	expect("a /batch of a cold and a warm line", 1, 1)

	var sweepID string
	for _, want := range []string{"miss", "hit"} {
		hdr, rows, _ := sweepBody(t, ts.URL, gridRequest(34))
		sweepID = hdr.Get(SweepIDHeader)
		if len(rows) != 8 {
			t.Fatalf("%d sweep rows, want 8", len(rows))
		}
		for _, row := range rows {
			if row.Cache != want {
				t.Fatalf("sweep row %d: cache %q, want %s", row.Index, row.Cache, want)
			}
		}
		if want == "hit" {
			expect("a warm sweep", uint64(len(rows)), 0)
		} else {
			expect("a cold sweep", 0, uint64(len(rows)))
		}
	}
	// The router's manifest traffic, GET and PUT /sweep/{id}, is
	// bookkeeping: it probes nothing and counts no hit.
	m, ok, err := cl.FetchManifest(context.Background(), sweepID)
	if err != nil || !ok {
		t.Fatalf("GET /sweep/%s: ok=%v err=%v", sweepID, ok, err)
	}
	if err := cl.PutManifest(context.Background(), m); err != nil {
		t.Fatalf("PUT /sweep/%s: %v", sweepID, err)
	}
	expect("a manifest GET and PUT", 0, 0)

	for _, c := range []struct {
		spec   int
		status int
	}{{31, http.StatusOK}, {35, http.StatusNotFound}} {
		hash, _ := testSpec(c.spec).Hash()
		key, err := ResultKey("tl", hash)
		if err != nil {
			t.Fatal(err)
		}
		if status, _, body := getJSON(t, ts.URL+"/results?key="+url.QueryEscape(key)); status != c.status {
			t.Fatalf("GET /results for spec %d: %d, want %d: %s", c.spec, status, c.status, body)
		}
	}
	expect("a stored and a cold GET /results", 1, 1)

	// Every miss but the cold GET /results simulated once, and every
	// request hit — two /run, one /batch line, eight sweep rows, one
	// GET /results — counts once in cache_hits. The sweeps' manifest
	// reads (stream start, checkpoint merge) count nowhere.
	if c := srv.CountersSnapshot(); c.Jobs != misses-1 || c.CacheHits != hits || hits != 12 || c.StoreHits != c.CacheHits {
		t.Fatalf("counters %+v after %d store hits and %d misses, want 12 cache hits", c, hits, misses)
	}

	// A worker without a store keeps its manifests in the memory LRU
	// beside the results; its warm sweep counts its rows and nothing
	// else either.
	mem, mts := newTestServer(t, Options{Workers: 2})
	sweepBody(t, mts.URL, gridRequest(36))
	before := mem.CountersSnapshot().CacheHits
	sweepBody(t, mts.URL, gridRequest(36))
	if got := mem.CountersSnapshot().CacheHits - before; got != 8 {
		t.Fatalf("a store-less worker's warm 8-variant sweep moved cache_hits by %d, want 8", got)
	}
}

func TestHealthzReportsStore(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, StoreDir: t.TempDir()})
	post(t, ts.URL+"/run", map[string]any{"spec": testSpec(33), "model": "tl"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Store *struct {
			Entries int   `json:"entries"`
			Bytes   int64 `json:"bytes"`
			Writes  uint64
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Store == nil || h.Store.Entries != 1 || h.Store.Bytes == 0 {
		t.Fatalf("healthz store section %+v", h.Store)
	}
}

func TestNewRejectsUnusableStoreDir(t *testing.T) {
	// A store path that collides with an existing file cannot open.
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{StoreDir: file}); err == nil {
		t.Fatal("New accepted a file as a store directory")
	}
}

func TestSweepClientDisconnectStopsRetriesAndFreesPool(t *testing.T) {
	// A sweep whose client vanishes mid-stream must not keep retrying
	// the saturated pool in the background: cancelling the request
	// context has to stop the per-variant retry loops, release the
	// sweep's goroutines and leave the pool usable — with no goroutine
	// leaked per abandoned sweep.
	srv, ts := newTestServer(t, Options{Workers: 1, Queue: 1})

	// Saturate the pool so every variant of the sweep is stuck in its
	// retry-with-backoff loop (nothing cached, no capacity). The
	// blocker is released through a Once registered BEFORE any Fatal
	// path, so a failed assertion can never leave srv.Close (the
	// t.Cleanup above) waiting on the held worker forever.
	block := make(chan struct{})
	var unblock sync.Once
	release := func() { unblock.Do(func() { close(block) }) }
	defer release()
	started := make(chan struct{})
	w1, err := srv.sched.Submit("t", sched.Interactive, func() { close(started); <-block })
	if err != nil {
		t.Fatal(err)
	}
	<-started
	w2, err := srv.sched.Submit("t", sched.Interactive, func() {})
	if err != nil {
		t.Fatal(err)
	}

	// A dedicated transport: its only connection dies with the cancel,
	// so the goroutine baseline isn't polluted by shared keep-alives.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf, _ := json.Marshal(gridRequest(26))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The stream is committed but no row can complete; give the sweep
	// a moment to spin up its retry loops, then hang up.
	time.Sleep(50 * time.Millisecond)
	cancel()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.CloseIdleConnections()

	// Every sweep goroutine must unwind. Poll: goroutine teardown is
	// asynchronous with the response error surfacing to the client.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		stack := make([]byte, 1<<20)
		t.Fatalf("goroutines %d > baseline %d after disconnect\n%s",
			got, baseline, stack[:runtime.Stack(stack, true)])
	}

	// The pool was not poisoned: drain it and the service runs new work.
	release()
	w1()
	w2()
	status, _, body := post(t, ts.URL+"/run", map[string]any{"spec": testSpec(27), "model": "tl"})
	if status != http.StatusOK {
		t.Fatalf("post-disconnect run: %d %s", status, body)
	}
}

// flushCounter is a response recorder that counts Flush calls.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

// TestSweepCoalescesFlushes pins the flush rule: rows that are ready
// together leave in one flush, not one each. A warm grid's rows are all
// ready at once, so the whole stream costs the header flush, the flush
// at the end of the chunk and nothing for the terminal row behind it.
func TestSweepCoalescesFlushes(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2, Queue: 64})
	sweepBody(t, ts.URL, gridRequest(24)) // fill the memory cache
	buf, _ := json.Marshal(gridRequest(24))
	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(buf)))
	if lines := bytes.Count(rec.Body.Bytes(), []byte("\n")); lines != 9 {
		t.Fatalf("%d lines, want 8 rows and the summary:\n%s", lines, rec.Body)
	}
	if rec.flushes > 3 {
		t.Fatalf("%d flushes for 8 ready rows, want at most 3 (headers, chunk, terminal)", rec.flushes)
	}
}

// writeCounter is a response recorder that counts the writes reaching
// it.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

// TestRowWriterBuffersUntilFlushOrFull pins the row buffer: lines reach
// the response only at a Flush or once rowBufferBytes of them are
// waiting, in the order written and byte for byte as encoded one by
// one; a line that does not encode leaves the buffer as it was.
func TestRowWriterBuffersUntilFlushOrFull(t *testing.T) {
	rec := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
	rw := newRowWriter(rec)
	var want bytes.Buffer
	row := SweepRow{Index: 1, Name: "grid/x", Hash: strings.Repeat("ab", 32), Params: map[string]any{"count": 3},
		Cache: "hit", Result: json.RawMessage(`{"cycles":` + strings.Repeat("1", 1000) + `}`)}
	perLine := 0
	for i := 0; rec.writes == 0; i++ {
		row.Index = i
		if err := rw.Write(row); err != nil {
			t.Fatal(err)
		}
		line, _ := encodeLine(row)
		want.Write(line)
		perLine = len(line)
	}
	if n := want.Len(); n < rowBufferBytes || n-perLine >= rowBufferBytes {
		t.Fatalf("first write after %d bytes of lines, want the first line to reach %d", n, rowBufferBytes)
	}
	if err := rw.Write(SweepRow{Result: json.RawMessage(`{"a":`)}); err == nil {
		t.Fatal("a result that is not JSON encoded")
	}
	row.Index = -1
	_ = rw.Write(row)
	line, _ := encodeLine(row)
	want.Write(line)
	if rec.writes != 1 {
		t.Fatalf("%d writes before the flush, want 1", rec.writes)
	}
	rw.Flush()
	if rec.writes != 2 || !rec.Flushed || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("after the flush: %d writes, flushed %v, body equal %v", rec.writes, rec.Flushed, bytes.Equal(rec.Body.Bytes(), want.Bytes()))
	}
}
