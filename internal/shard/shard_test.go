package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/config"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// testSpec returns a small distinct workload; vary salt to defeat the
// cache.
func testSpec(salt int) spec.Spec {
	return spec.Spec{
		SpecVersion: spec.Version,
		Name:        fmt.Sprintf("shard/test-%d", salt),
		Params:      config.Default(2),
		Masters: []spec.GenSpec{
			{Kind: spec.KindSequential, Base: 0, Beats: 8, Count: 20 + salt, Gap: 2},
			{Kind: spec.KindStream, Base: 0x80000, Beats: 4, Period: 40, Count: 20},
		},
	}
}

// newBackend starts one real service worker behind httptest.
func newBackend(t *testing.T, opt service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	srv, err := service.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// newCluster starts n backends plus a router over them, returning the
// backend servers and the router's frontend URL.
func newCluster(t *testing.T, n int, opt service.Options) ([]*service.Server, string) {
	t.Helper()
	backends := make([]*service.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv, ts := newBackend(t, opt)
		backends[i] = srv
		urls[i] = ts.URL
	}
	rt, err := New(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return backends, front.URL
}

// post sends a JSON body and returns status, headers, body.
func post(t *testing.T, url string, req any) (int, http.Header, []byte) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
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

// readSweep posts a /sweep request and splits the NDJSON stream into
// data rows and the terminal summary.
func readSweep(t *testing.T, url string, req any) (http.Header, []Row, service.SweepSummary, bool) {
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
	return resp.Header, rows, summary, done
}

// gridRequest is the canonical 8-variant test grid.
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

// expandGrid mirrors the router's expansion for owner bookkeeping.
func expandGrid(t *testing.T, salt int) []sweep.Variant {
	t.Helper()
	return sweep.MustExpand(sweep.Grid{
		Name: "grid/test", Base: testSpec(salt),
		Axes: []sweep.Axis{
			{Param: sweep.ParamWriteBufferDepth, Values: []sweep.Value{{V: 0}, {V: 2}, {V: 4}, {V: 8}}},
			{Param: sweep.ParamBIEnabled, Values: []sweep.Value{{V: true}, {V: false}}},
		},
	})
}

func TestOwnerDeterministicAndBalanced(t *testing.T) {
	// Determinism: the owner of a hash is a pure function of (hash, n).
	sp := testSpec(1)
	hash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	first := OwnerID(hash, ids(4))
	for i := 0; i < 10; i++ {
		if got := OwnerID(hash, ids(4)); got != first {
			t.Fatalf("owner flapped: %d then %d", first, got)
		}
	}
	if first < 0 || first >= 4 {
		t.Fatalf("owner %d out of range", first)
	}
	if got := OwnerID(hash, ids(1)); got != 0 {
		t.Fatalf("single shard owner %d", got)
	}

	// Balance: hashing many distinct spec hashes over 4 shards lands
	// a sane share everywhere (rendezvous over uniform input; the
	// bound is loose — this guards against degenerate mixing, not
	// statistical perfection).
	counts := make([]int, 4)
	for salt := 0; salt < 400; salt++ {
		h, err := testSpec(salt).Hash()
		if err != nil {
			t.Fatal(err)
		}
		counts[OwnerID(h, ids(4))]++
	}
	for i, c := range counts {
		if c < 40 || c > 160 {
			t.Fatalf("shard %d owns %d of 400 (distribution %v)", i, c, counts)
		}
	}

	// Minimal disruption: growing 3 -> 4 shards only moves keys to the
	// new shard; nothing migrates between surviving shards.
	for salt := 0; salt < 100; salt++ {
		h, _ := testSpec(salt).Hash()
		before, after := OwnerID(h, ids(3)), OwnerID(h, ids(4))
		if before != after && after != 3 {
			t.Fatalf("key moved %d -> %d when shard 3 joined", before, after)
		}
	}
}

func TestRouterMatchesSingleProcessByteForByte(t *testing.T) {
	single, singleTS := newBackend(t, service.Options{Workers: 2})
	backends, front := newCluster(t, 2, service.Options{Workers: 2})

	requests := []map[string]any{
		{"spec": testSpec(2), "model": "tl"},
		{"spec": testSpec(3), "model": "tl"},
		{"spec": testSpec(4), "model": "rtl"},
		{"scenario": "seq/read-dominant", "model": "tl"},
	}
	for _, req := range requests {
		st1, h1, b1 := post(t, singleTS.URL+"/run", req)
		st2, h2, b2 := post(t, front+"/run", req)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("statuses %d/%d: %s / %s", st1, st2, b1, b2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("sharded body differs from single-process:\n%s\n%s", b1, b2)
		}
		if h1.Get("X-Spec-Hash") != h2.Get("X-Spec-Hash") {
			t.Fatalf("hash headers differ: %q vs %q", h1.Get("X-Spec-Hash"), h2.Get("X-Spec-Hash"))
		}
		shardIdx, err := strconv.Atoi(h2.Get("X-Shard"))
		if err != nil || shardIdx < 0 || shardIdx > 1 {
			t.Fatalf("X-Shard %q", h2.Get("X-Shard"))
		}

		// Repeat through the router: a cache hit, served by the SAME
		// shard (deterministic placement is what keeps the per-shard
		// stores disjoint), byte-identical again.
		_, h3, b3 := post(t, front+"/run", req)
		if h3.Get("X-Cache") != "hit" || h3.Get("X-Shard") != h2.Get("X-Shard") || !bytes.Equal(b2, b3) {
			t.Fatalf("replay: cache %q shard %q->%q identical=%v",
				h3.Get("X-Cache"), h2.Get("X-Shard"), h3.Get("X-Shard"), bytes.Equal(b2, b3))
		}
	}
	// Work landed on both shards overall (4 distinct specs over 2
	// shards — if one backend ran everything the hash isn't routing),
	// and the cluster simulated exactly as much as the single process.
	jobs := backends[0].CountersSnapshot().Jobs + backends[1].CountersSnapshot().Jobs
	if jobs != single.CountersSnapshot().Jobs {
		t.Fatalf("cluster ran %d jobs, single process ran %d", jobs, single.CountersSnapshot().Jobs)
	}
	if backends[0].CountersSnapshot().Jobs == 0 || backends[1].CountersSnapshot().Jobs == 0 {
		t.Fatalf("one shard ran everything: %d/%d",
			backends[0].CountersSnapshot().Jobs, backends[1].CountersSnapshot().Jobs)
	}

	// /compare routes the same way and matches byte-for-byte.
	cmpReq := map[string]any{"spec": testSpec(5)}
	_, _, c1 := post(t, singleTS.URL+"/compare", cmpReq)
	_, h2, c2 := post(t, front+"/compare", cmpReq)
	if !bytes.Equal(c1, c2) || h2.Get("X-Shard") == "" {
		t.Fatalf("compare differs or unshared: %s vs %s (shard %q)", c1, c2, h2.Get("X-Shard"))
	}
}

func TestRouterSweepMergesShardsWithTerminalRow(t *testing.T) {
	backends, front := newCluster(t, 2, service.Options{Workers: 2})
	variants := expandGrid(t, 6)
	wantOwner := map[string]int{}
	perShard := []int{0, 0}
	for _, v := range variants {
		o := OwnerID(v.Hash, ids(2))
		wantOwner[v.Hash] = o
		perShard[o]++
	}

	hdr, rows, summary, done := readSweep(t, front, gridRequest(6))
	if hdr.Get("X-Sweep-Variants") != "8" {
		t.Fatalf("X-Sweep-Variants %q", hdr.Get("X-Sweep-Variants"))
	}
	if len(rows) != 8 || !done {
		t.Fatalf("%d rows, done=%v", len(rows), done)
	}
	if summary.Rows != 8 || summary.Errors != 0 {
		t.Fatalf("summary %+v", summary)
	}
	for _, row := range rows {
		if row.Error != "" || row.Cache != "miss" {
			t.Fatalf("cold row %s: cache %q error %q", row.Name, row.Cache, row.Error)
		}
		if row.Shard != wantOwner[row.Hash] {
			t.Fatalf("row %s on shard %d, rendezvous owner is %d", row.Name, row.Shard, wantOwner[row.Hash])
		}
	}
	// Each shard simulated exactly its partition — the stores are
	// disjoint by construction, not by luck.
	for i, want := range perShard {
		if got := int(backends[i].CountersSnapshot().Jobs); got != want {
			t.Fatalf("shard %d ran %d jobs, owns %d variants", i, got, want)
		}
	}

	// Warm repeat: all hits, zero new jobs anywhere.
	_, rows2, summary2, done2 := readSweep(t, front, gridRequest(6))
	if len(rows2) != 8 || !done2 || summary2.Errors != 0 {
		t.Fatalf("warm sweep: %d rows done=%v %+v", len(rows2), done2, summary2)
	}
	byHash := map[string][]byte{}
	for _, r := range rows {
		byHash[r.Hash] = r.Result
	}
	for _, r := range rows2 {
		if r.Cache != "hit" || !bytes.Equal(r.Result, byHash[r.Hash]) {
			t.Fatalf("warm row %s: cache %q identical=%v", r.Name, r.Cache, bytes.Equal(r.Result, byHash[r.Hash]))
		}
	}
	for i, want := range perShard {
		if got := int(backends[i].CountersSnapshot().Jobs); got != want {
			t.Fatalf("warm sweep grew shard %d jobs to %d", i, got)
		}
	}
}

func TestRouterSweepDeadShardFailsOverToSurvivor(t *testing.T) {
	// Two backends; one is torn down before the sweep. Results are
	// content-addressed, so ownership only decides cache placement:
	// the dead shard's variants must fail over to the survivor — zero
	// error rows, Failover tags naming the reroute — and the stream
	// must end with a truthful terminal summary. The dead backend's
	// breaker must be open by the end (its variants each cost at most
	// one dial, then the circuit eats the rest).
	srvA, tsA := newBackend(t, service.Options{Workers: 2})
	_, tsB := newBackend(t, service.Options{Workers: 2})
	urls := []string{tsA.URL, tsB.URL}
	rt, err := New(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	tsB.Close() // shard 1 dies

	variants := expandGrid(t, 7)
	deadOwned := 0
	for _, v := range variants {
		if OwnerID(v.Hash, ids(2)) == 1 {
			deadOwned++
		}
	}
	if deadOwned == 0 || deadOwned == len(variants) {
		t.Fatalf("degenerate partition: dead shard owns %d of %d", deadOwned, len(variants))
	}

	_, rows, summary, done := readSweep(t, front.URL, gridRequest(7))
	if len(rows) != 8 || !done {
		t.Fatalf("%d rows, done=%v", len(rows), done)
	}
	if summary.Rows != 8 || summary.Errors != 0 {
		t.Fatalf("summary %+v, want 0 errors", summary)
	}
	failedOver := 0
	for _, row := range rows {
		if row.Error != "" {
			t.Fatalf("row %s errored despite a live shard: %q", row.Name, row.Error)
		}
		owner := OwnerID(row.Hash, ids(2))
		switch owner {
		case 0:
			if row.Shard != 0 || row.Failover != "" {
				t.Fatalf("live-owned row %s served by %d failover %q", row.Name, row.Shard, row.Failover)
			}
		case 1:
			if row.Shard != 0 || row.Failover != "1->0" {
				t.Fatalf("dead-owned row %s served by %d failover %q, want shard 0 via 1->0", row.Name, row.Shard, row.Failover)
			}
		}
	}
	for _, row := range rows {
		if row.Failover != "" {
			failedOver++
		}
	}
	if failedOver != deadOwned {
		t.Fatalf("%d failover rows, dead shard owned %d", failedOver, deadOwned)
	}
	// The survivor computed the WHOLE grid (its own variants plus the
	// failed-over ones).
	if jobs := srvA.CountersSnapshot().Jobs; jobs != 8 {
		t.Fatalf("live shard ran %d jobs, want all 8", jobs)
	}
	// deadOwned >= breaker threshold here, so the circuit must be open
	// (or already probed into half-open — never closed: the backend is
	// still down and the probe cannot have succeeded).
	if deadOwned >= defaultBreakerThreshold {
		if st := rt.view().shards[1].breaker.State(); st != breakerOpen {
			t.Fatalf("dead shard breaker %q, want open", st)
		}
	}

	// Direct /run of a dead-shard spec: 200 via failover, tagged.
	for _, v := range variants {
		if OwnerID(v.Hash, ids(2)) != 1 {
			continue
		}
		status, hdr, body := post(t, front.URL+"/run", map[string]any{"spec": v.Spec, "model": "tl"})
		if status != http.StatusOK {
			t.Fatalf("dead-shard /run: %d %s", status, body)
		}
		if hdr.Get("X-Shard") != "0" || hdr.Get("X-Failover") != "1->0" {
			t.Fatalf("dead-shard /run X-Shard %q X-Failover %q", hdr.Get("X-Shard"), hdr.Get("X-Failover"))
		}
		break
	}
}

func TestRouterAllShardsDeadIsExplicit(t *testing.T) {
	// Failover has somewhere to go only while a shard lives. With the
	// whole cluster down the router must say so: 502 on /run, explicit
	// error rows plus a truthful summary on /sweep — never a hang.
	_, tsA := newBackend(t, service.Options{Workers: 2})
	_, tsB := newBackend(t, service.Options{Workers: 2})
	rt, err := New(Options{Backends: []string{tsA.URL, tsB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	tsA.Close()
	tsB.Close()

	status, _, body := post(t, front.URL+"/run", map[string]any{"spec": testSpec(29), "model": "tl"})
	if status != http.StatusBadGateway || !strings.Contains(string(body), "no live shard") {
		t.Fatalf("all-dead /run: %d %s", status, body)
	}

	_, rows, summary, done := readSweep(t, front.URL, gridRequest(29))
	if len(rows) != 8 || !done {
		t.Fatalf("%d rows, done=%v", len(rows), done)
	}
	if summary.Errors != 8 {
		t.Fatalf("summary %+v, want 8 errors", summary)
	}
	for _, row := range rows {
		if !strings.Contains(row.Error, "no live shard") {
			t.Fatalf("row %s error %q", row.Name, row.Error)
		}
	}
}

func TestRouterHealthzAggregates(t *testing.T) {
	srvA, tsA := newBackend(t, service.Options{Workers: 3, Queue: 5})
	_, tsB := newBackend(t, service.Options{Workers: 2, Queue: 4})
	rt, err := New(Options{Backends: []string{tsA.URL, tsB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	// Prime one result so counters flow through.
	post(t, front.URL+"/run", map[string]any{"spec": testSpec(8), "model": "tl"})

	fetch := func() ClusterHealth {
		resp, err := http.Get(front.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h ClusterHealth
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := fetch()
	if !h.OK || len(h.Shards) != 2 {
		t.Fatalf("health %+v", h)
	}
	if h.Workers != 5 || h.QueueCap != 9 {
		t.Fatalf("aggregate pool shape: workers %d queue %d", h.Workers, h.QueueCap)
	}
	if h.Jobs != 1 {
		t.Fatalf("aggregate jobs %d", h.Jobs)
	}
	if h.RetryAfter < 1 {
		t.Fatalf("aggregate retry_after %d", h.RetryAfter)
	}
	for i, sh := range h.Shards {
		if !sh.OK || sh.Health == nil || sh.Health.Pid == 0 || sh.Index != i {
			t.Fatalf("shard slot %d: %+v", i, sh)
		}
	}

	// A dead shard degrades the cluster verdict but the probe itself
	// stays fast and the live shard's numbers remain.
	tsB.Close()
	h = fetch()
	if h.OK {
		t.Fatal("cluster reported ok with a dead shard")
	}
	if h.Shards[0].OK != true || h.Shards[1].OK != false || h.Shards[1].Error == "" {
		t.Fatalf("degraded shards %+v", h.Shards)
	}
	if h.Workers != 3 {
		t.Fatalf("degraded aggregate workers %d", h.Workers)
	}
	_ = srvA
}

// flakyBackend is a scripted fake worker: statuses[i] answers the
// i-th /run POST (clamped to the last entry), with Retry-After and
// optional X-Terminal on 503s. /healthz reports one worker.
type flakyBackend struct {
	statuses   []int
	retryAfter string
	terminal   bool
	calls      int
}

func (f *flakyBackend) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.Health{OK: true, Workers: 1, RetryAfter: 1})
	})
	run := func(w http.ResponseWriter, r *http.Request) {
		i := f.calls
		if i >= len(f.statuses) {
			i = len(f.statuses) - 1
		}
		f.calls++
		status := f.statuses[i]
		w.Header().Set("Content-Type", "application/json")
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", f.retryAfter)
			if f.terminal {
				w.Header().Set("X-Terminal", "1")
			}
			w.WriteHeader(status)
			w.Write([]byte(`{"error":"run queue saturated; retry"}`))
			return
		}
		w.Header().Set("X-Cache", "miss")
		w.WriteHeader(status)
		w.Write([]byte(`{"name":"fake","cycles":1,"completed":true}`))
	}
	mux.HandleFunc("/run", run)
	mux.HandleFunc("/compare", run)
	return mux
}

func TestRouterPropagatesBackpressure(t *testing.T) {
	// A saturated backend's 503 passes through /run with the backend's
	// own Retry-After — the router never invents a cheerier number.
	fake := &flakyBackend{statuses: []int{503}, retryAfter: "7"}
	ts := httptest.NewServer(fake.handler())
	t.Cleanup(ts.Close)
	rt, err := New(Options{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	status, hdr, _ := post(t, front.URL+"/run", map[string]any{"spec": testSpec(9), "model": "tl"})
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") != "7" {
		t.Fatalf("propagated 503: status %d Retry-After %q", status, hdr.Get("Retry-After"))
	}
}

func TestRouterSweepRetriesSaturationButNotShutdown(t *testing.T) {
	// Saturation 503s are retried (honoring Retry-After) until the
	// variant lands...
	fake := &flakyBackend{statuses: []int{503, 503, 200}, retryAfter: "0"}
	ts := httptest.NewServer(fake.handler())
	t.Cleanup(ts.Close)
	rt, err := New(Options{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	req := map[string]any{
		"base": testSpec(10), "model": "tl",
		"axes": []map[string]any{{"param": "pipelining", "values": []bool{true}}},
	}
	_, rows, summary, done := readSweep(t, front.URL, req)
	if !done || len(rows) != 1 || rows[0].Error != "" || summary.Errors != 0 {
		t.Fatalf("retried sweep: done=%v rows=%+v", done, rows)
	}
	if fake.calls != 3 {
		t.Fatalf("backend saw %d calls, want 3 (two 503s + success)", fake.calls)
	}

	// ...but a shutting-down backend (503 + X-Terminal) is terminal:
	// an error row immediately, no retry spin.
	term := &flakyBackend{statuses: []int{503}, retryAfter: "0", terminal: true}
	ts2 := httptest.NewServer(term.handler())
	t.Cleanup(ts2.Close)
	rt2, err := New(Options{Backends: []string{ts2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front2 := httptest.NewServer(rt2.Handler())
	t.Cleanup(front2.Close)
	_, rows, summary, done = readSweep(t, front2.URL, req)
	if !done || len(rows) != 1 || rows[0].Error == "" || summary.Errors != 1 {
		t.Fatalf("terminal sweep: done=%v rows=%+v summary=%+v", done, rows, summary)
	}
	if term.calls != 1 {
		t.Fatalf("terminal 503 retried: %d calls", term.calls)
	}
}

// analyzeRequest is the canonical 8-variant grid plus an analysis
// selector, mirroring the service-side test shape.
func analyzeRequest(salt int) map[string]any {
	req := gridRequest(salt)
	req["metric"] = "cycles"
	req["top_k"] = 3
	req["frontier"] = map[string]any{"x": "cycles", "y": "throughput", "y_objective": "max"}
	return req
}

func TestRouterAnalyzeByteIdenticalToSingleProcess(t *testing.T) {
	// The acceptance bar of the analysis subsystem: one JSON document,
	// byte-for-byte the same whether the grid ran in one process or
	// across a 2-shard cluster — aggregation is a pure function of the
	// (deterministic) result set, and completion order must not leak
	// into the bytes.
	_, singleTS := newBackend(t, service.Options{Workers: 2})
	_, front := newCluster(t, 2, service.Options{Workers: 2})

	req := analyzeRequest(12)
	st1, _, b1 := post(t, singleTS.URL+"/sweep/analyze", req)
	st2, h2, b2 := post(t, front+"/sweep/analyze", req)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("statuses %d/%d: %s / %s", st1, st2, b1, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("sharded analysis differs from single-process:\n%s\n%s", b1, b2)
	}
	if h2.Get("X-Sweep-Variants") != "8" {
		t.Fatalf("X-Sweep-Variants %q", h2.Get("X-Sweep-Variants"))
	}
	var doc agg.Analysis
	if err := json.Unmarshal(b2, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Incomplete || doc.Analyzed != 8 || doc.Best == nil || len(doc.Frontier.Points) == 0 {
		t.Fatalf("doc %+v", doc)
	}

	// Warm repeat through the cluster: still byte-identical (cache
	// hits complete in yet another order).
	_, _, b3 := post(t, front+"/sweep/analyze", req)
	if !bytes.Equal(b2, b3) {
		t.Fatalf("warm cluster analysis differs:\n%s\n%s", b2, b3)
	}
}

func TestRouterAnalyzeDeadShardStaysComplete(t *testing.T) {
	// Single-shard loss must not dent the analysis document: failover
	// computes the dead shard's variants on the survivor, and the
	// resulting document is byte-identical to a healthy single-process
	// run — complete, no failed list.
	_, tsA := newBackend(t, service.Options{Workers: 2})
	_, tsB := newBackend(t, service.Options{Workers: 2})
	rt, err := New(Options{Backends: []string{tsA.URL, tsB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	tsB.Close() // shard 1 dies

	_, single := newBackend(t, service.Options{Workers: 2})
	wantStatus, _, wantBody := post(t, single.URL+"/sweep/analyze", analyzeRequest(13))
	if wantStatus != http.StatusOK {
		t.Fatalf("single-process analyze: %d %s", wantStatus, wantBody)
	}

	status, _, body := post(t, front.URL+"/sweep/analyze", analyzeRequest(13))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("degraded-cluster analysis diverged from single process:\n%s\nvs\n%s", body, wantBody)
	}
	var doc agg.Analysis
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Incomplete || doc.Analyzed != 8 || len(doc.Failed) != 0 {
		t.Fatalf("incomplete/analyzed/failed %v/%d/%d, want complete 8", doc.Incomplete, doc.Analyzed, len(doc.Failed))
	}
}

func TestRouterAnalyzeAllShardsDeadReportsIncomplete(t *testing.T) {
	// With no shard left to fail over to, the document must carry
	// explicit incomplete metadata — analyzed 0, every variant in the
	// failed list — never a silently-shrunk frontier that reads like
	// the whole design space.
	_, tsA := newBackend(t, service.Options{Workers: 2})
	_, tsB := newBackend(t, service.Options{Workers: 2})
	rt, err := New(Options{Backends: []string{tsA.URL, tsB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	tsA.Close()
	tsB.Close()

	status, _, body := post(t, front.URL+"/sweep/analyze", analyzeRequest(13))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var doc agg.Analysis
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Incomplete {
		t.Fatalf("all-dead analysis not marked incomplete: %s", body)
	}
	if doc.Variants != 8 || doc.Analyzed != 0 || len(doc.Failed) != 8 {
		t.Fatalf("variants/analyzed/failed %d/%d/%d, want 8/0/8",
			doc.Variants, doc.Analyzed, len(doc.Failed))
	}
	for _, f := range doc.Failed {
		if !strings.Contains(f.Error, "no live shard") {
			t.Fatalf("failure %+v lacks the no-live-shard attribution", f)
		}
	}
	if doc.Best != nil {
		t.Fatalf("best %+v from zero analyzed rows", doc.Best)
	}
}

func TestRouterAnalyzeShapeErrors(t *testing.T) {
	_, front := newCluster(t, 2, service.Options{Workers: 1})
	cases := []struct {
		req  map[string]any
		want string
	}{
		{map[string]any{"metric": "cycles"}, "base spec or a scenario"},
		{func() map[string]any {
			r := analyzeRequest(14)
			r["metric"] = "warp"
			return r
		}(), "unknown metric"},
		{func() map[string]any {
			r := analyzeRequest(14)
			r["objective"] = "best"
			return r
		}(), "unknown objective"},
	}
	for _, c := range cases {
		status, _, body := post(t, front+"/sweep/analyze", c.req)
		if status != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("req %v: %d %s", c.req, status, body)
		}
	}
}

func TestRouterSweepSurvivesUnparseableRetryAfter(t *testing.T) {
	// A backend advertising a Retry-After the router cannot parse (an
	// HTTP-date, garbage) must be treated as the DEFAULT backoff — the
	// retry still happens and the variant still lands; it just paces
	// at 1s instead of hammering at the 50ms floor. (The wait mapping
	// itself is pinned by service.TestRetryWaitParsesAndClamps.)
	fake := &flakyBackend{statuses: []int{503, 200}, retryAfter: "Wed, 21 Oct 2198 07:28:00 GMT"}
	ts := httptest.NewServer(fake.handler())
	t.Cleanup(ts.Close)
	rt, err := New(Options{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	req := map[string]any{
		"base": testSpec(15), "model": "tl",
		"axes": []map[string]any{{"param": "pipelining", "values": []bool{true}}},
	}
	start := time.Now()
	_, rows, summary, done := readSweep(t, front.URL, req)
	if !done || len(rows) != 1 || rows[0].Error != "" || summary.Errors != 0 {
		t.Fatalf("sweep with unparseable Retry-After: done=%v rows=%+v", done, rows)
	}
	if fake.calls != 2 {
		t.Fatalf("backend saw %d calls, want 2", fake.calls)
	}
	// The default backoff (1s) was actually honored — the old code
	// fell through to the 50ms floor here.
	if waited := time.Since(start); waited < service.DefaultRetryWait {
		t.Fatalf("retry after only %v, want >= %v", waited, service.DefaultRetryWait)
	}
}

func TestRouterScenariosAndShapeErrors(t *testing.T) {
	_, front := newCluster(t, 2, service.Options{Workers: 1})

	// The scenario library is identical to a worker's.
	resp, err := http.Get(front + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	routerBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantBody, _ := service.ScenarioLibrary()
	if !bytes.Equal(routerBody, wantBody) {
		t.Fatal("router /scenarios differs from the service library")
	}

	cases := []struct {
		path string
		req  any
		want string
	}{
		{"/run", map[string]any{}, "spec or a scenario"},
		{"/run", map[string]any{"spec": testSpec(11), "scenario": "seq/read-dominant"}, "both"},
		{"/run", map[string]any{"scenario": "no/such"}, "unknown scenario"},
		{"/sweep", map[string]any{}, "base spec or a scenario"},
		{"/sweep", map[string]any{"base": testSpec(11), "model": "spice"}, "unknown model"},
		{"/sweep", map[string]any{"scenario": "no/such"}, "unknown scenario"},
	}
	for _, c := range cases {
		status, _, body := post(t, front+c.path, c.req)
		if status != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("%s %v: %d %s", c.path, c.req, status, body)
		}
	}
}

// TestRouterRejectsTrailingData: the router reads a /run body with the
// worker's own ResolveRunRequest, so a second document or garbage after
// the first is the same 400 at the front door, and trailing whitespace
// is still a request.
func TestRouterRejectsTrailingData(t *testing.T) {
	_, url := newCluster(t, 2, service.Options{Workers: 1})
	for _, c := range []struct {
		body   string
		status int
	}{
		{`{"scenario":"seq/read-dominant"} garbage`, http.StatusBadRequest},
		{`{"scenario":"seq/read-dominant"}{"scenario":"nope"}`, http.StatusBadRequest},
		{"{\"scenario\":\"seq/read-dominant\"}\n", http.StatusOK},
	} {
		resp, err := http.Post(url+"/run", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status {
			t.Errorf("%q: status %d, want %d: %s", c.body, resp.StatusCode, c.status, body)
		}
		if c.status == http.StatusBadRequest && !strings.Contains(string(body), `"parsing request: trailing data after document"`) {
			t.Errorf("%q: error body %s", c.body, body)
		}
	}
}
