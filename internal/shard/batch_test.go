// Batched sweep dispatch: a lane's run of same-owner misses goes to the
// owner in one POST /batch, and everything that call does not settle
// goes down the per-variant rank walk. These tests hold the cluster's
// stream to a single worker's, count backend calls so per-variant
// dispatch cannot come back unnoticed, and break the batch call every
// way a backend can.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/service"
	"repro/internal/sweep"
)

// countGrid is an n-variant grid over testSpec(salt)'s transaction
// count, with its local expansion.
func countGrid(t testing.TB, salt, n int, model string) (service.SweepRequest, []sweep.Variant) {
	t.Helper()
	base := testSpec(salt)
	counts := make([]any, n)
	for i := range counts {
		counts[i] = 10 + i
	}
	// The grid's name is every variant's name prefix, and a spec's name
	// is part of its hash: the salt must be in it.
	req := service.SweepRequest{Base: &base, Name: fmt.Sprintf("grid/batch-%d", salt), Model: model,
		Axes: []service.SweepAxis{{Param: sweep.ParamCount, Values: counts}}}
	variants, err := service.ExpandSweepRequest(req, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return req, variants
}

func TestClusterSweepMatchesSingleWorkerPerIndex(t *testing.T) {
	_, cluster := newCluster(t, 2, service.Options{Workers: 2})
	_, single := newBackend(t, service.Options{Workers: 2})
	for _, g := range []struct {
		model string
		n     int
	}{{"tl", 96}, {"rtl", 48}, {"compare", 48}} {
		req, variants := countGrid(t, 500, g.n, g.model)
		_, rows, summary, done := readSweep(t, cluster, req)
		if !done || summary.Errors != 0 || summary.Rows != g.n || len(rows) != g.n {
			t.Fatalf("%s: cluster stream done=%v summary=%+v rows=%d, want %d clean rows", g.model, done, summary, len(rows), g.n)
		}
		_, ref, refSummary, refDone := readSweep(t, single.URL, req)
		if !refDone || refSummary.Errors != 0 || len(ref) != g.n {
			t.Fatalf("%s: single-worker stream done=%v summary=%+v rows=%d", g.model, refDone, refSummary, len(ref))
		}
		want := make(map[int]Row, g.n)
		for _, row := range ref {
			want[row.Index] = row
		}
		seen := make(map[int]bool, g.n)
		for _, row := range rows {
			w, ok := want[row.Index]
			if !ok || seen[row.Index] {
				t.Fatalf("%s: index %d unknown or emitted twice", g.model, row.Index)
			}
			seen[row.Index] = true
			if row.Hash != w.Hash || row.Name != w.Name || !bytes.Equal(row.Result, w.Result) || row.Cache != "miss" {
				t.Fatalf("%s: cluster row %d (%s) differs from the single worker's:\n%s\n%s", g.model, row.Index, row.Cache, row.Result, w.Result)
			}
		}
		// And a row is what a direct request for the variant answers.
		path, model := "/run", g.model
		if g.model == "compare" {
			path, model = "/compare", ""
		}
		for i := 0; i < len(variants); i += 7 {
			status, _, body := post(t, single.URL+path, map[string]any{"spec": variants[i].Spec, "model": model})
			if status != http.StatusOK || !bytes.Equal(body, want[variants[i].Index].Result) {
				t.Fatalf("%s: direct %s of variant %d (status %d) differs from its sweep row", g.model, path, variants[i].Index, status)
			}
		}
	}
}

func TestColdSweepCostsFarFewerBackendCallsThanVariants(t *testing.T) {
	// The counted contract behind the batch path, not a timing: a cold
	// 512-variant sweep on a healthy 2-shard cluster reaches the backends
	// in at most a quarter as many /run + /batch POSTs as it has variants
	// (one call per variant is what it used to cost), and each of them
	// still simulates exactly once.
	c := newResizeCluster(t, 2, false, 64<<20)
	req, _ := countGrid(t, 510, 512, "tl")
	_, rows, summary, done := readSweep(t, c.front, req)
	if !done || summary.Errors != 0 || len(rows) != 512 {
		t.Fatalf("cold sweep done=%v summary=%+v rows=%d", done, summary, len(rows))
	}
	for _, row := range rows {
		if row.Cache != "miss" {
			t.Fatalf("cold row %d was %q", row.Index, row.Cache)
		}
	}
	if calls := c.totalRunCalls(); calls > 512/4 {
		t.Fatalf("cold 512-variant sweep made %d backend /run + /batch calls, want at most %d", calls, 512/4)
	}
	// The repeat is the router cache's: runs of hits reach no backend.
	before := c.totalRunCalls()
	_, rows, _, _ = readSweep(t, c.front, req)
	for _, row := range rows {
		if row.Cache != routerHit {
			t.Fatalf("repeat row %d was %q", row.Index, row.Cache)
		}
	}
	if extra := c.totalRunCalls() - before; extra != 0 || len(rows) != 512 {
		t.Fatalf("repeat cost %d backend calls over %d rows", extra, len(rows))
	}
}

func TestOwnerLostMidBatchCostsNoRowAndNoSecondSimulation(t *testing.T) {
	srvA, tsA := newBackend(t, service.Options{Workers: 2})
	srvB, err := service.New(service.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	inB := &chaos.Injector{}
	tsB := httptest.NewServer(inB.Middleware(srvB.Handler()))
	t.Cleanup(func() {
		tsB.Close()
		srvB.Close()
	})
	rt, err := New(Options{Backends: []string{tsA.URL, tsB.URL}, BreakerThreshold: 2, BreakerInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	jobs := func() uint64 { return srvA.CountersSnapshot().Jobs + srvB.CountersSnapshot().Jobs }

	// Shard 1 runs its first batch to the end and dies before answering
	// it: the connection drops with every line simulated and cached. The
	// run's variants go down the rank walk, find the owner alive again
	// and are answered from what the lost call left behind — no error
	// row, and nothing simulated a second time anywhere.
	dropped, _ := countGrid(t, 520, 64, "tl")
	inB.ArmPath(chaos.Drop, 1, "/batch")
	_, rows, summary, done := readSweep(t, front.URL, dropped)
	if !done || summary.Errors != 0 || len(rows) != 64 {
		t.Fatalf("dropped-batch sweep done=%v summary=%+v rows=%d", done, summary, len(rows))
	}
	replayed := 0
	for _, row := range rows {
		if row.Cache == "hit" {
			replayed++
			if row.Shard != 1 || row.Failover != "" || row.Stolen != "" {
				t.Fatalf("row %d replayed from the lost batch as %+v, want an untagged owner hit", row.Index, row)
			}
		}
	}
	if replayed < 2 {
		t.Fatalf("%d rows replayed from the owner's cache, want the lost batch's run", replayed)
	}
	if got := jobs(); got != 64 {
		t.Fatalf("64 variants cost %d simulations: the lost batch's lines ran twice", got)
	}

	// Shard 1 dead outright, from the first batch on: its variants fail
	// over (or are stolen) to shard 0, still with zero error rows.
	dead, variants := countGrid(t, 521, 64, "tl")
	inB.ArmPath(chaos.Kill, -1, "") // every path: Arm alone would keep the /batch scope
	_, rows, summary, done = readSweep(t, front.URL, dead)
	if !done || summary.Errors != 0 || len(rows) != 64 {
		t.Fatalf("dead-owner sweep done=%v summary=%+v rows=%d", done, summary, len(rows))
	}
	owned := 0
	for _, v := range variants {
		if OwnerID(v.Hash, ids(2)) == 1 {
			owned++
		}
	}
	failedOver := 0
	for _, row := range rows {
		if row.Shard != 0 {
			t.Fatalf("row %d served by dead shard %d", row.Index, row.Shard)
		}
		if row.Failover == "1->0" {
			failedOver++
		}
		if OwnerID(row.Hash, ids(2)) == 1 && row.Failover != "1->0" && row.Stolen != "1->0" {
			t.Fatalf("row %d owned by the dead shard carries no 1->0 tag: %+v", row.Index, row)
		}
	}
	if owned < 8 || failedOver == 0 {
		t.Fatalf("%d of %d variants owned by the dead shard, %d failed over", owned, len(variants), failedOver)
	}

	// Healed: the first grid replays from the owners' caches alone.
	inB.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for rt.view().shards[1].breaker.State() == breakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("breaker never left open after the backend healed")
		}
		time.Sleep(time.Millisecond)
	}
	before := jobs()
	_, rows, summary, done = readSweep(t, front.URL, dropped)
	if !done || summary.Errors != 0 || len(rows) != 64 {
		t.Fatalf("replay done=%v summary=%+v rows=%d", done, summary, len(rows))
	}
	for _, row := range rows {
		if row.Cache != "hit" {
			t.Fatalf("replayed row %d was %q on shard %d", row.Index, row.Cache, row.Shard)
		}
	}
	if got := jobs() - before; got != 0 {
		t.Fatalf("replay simulated %d variants again", got)
	}
}

// fakeBatchBackend answers /run like a worker that simulates instantly
// and /batch with whatever the test scripts; it counts both.
type fakeBatchBackend struct {
	runs, batches atomic.Int64
	// batch writes the reply to a POST /batch of n lines.
	batch func(w http.ResponseWriter, n int)
}

func (f *fakeBatchBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/run":
		f.runs.Add(1)
		w.Header().Set("X-Cache", "miss")
		w.Write([]byte(`{"cycles":7}`))
	case r.Method == http.MethodPost && r.URL.Path == "/batch" && f.batch != nil:
		f.batches.Add(1)
		var body bytes.Buffer
		body.ReadFrom(r.Body)
		f.batch(w, bytes.Count(body.Bytes(), []byte("\n"))+1)
	default:
		http.Error(w, `{"error":"no such route"}`, http.StatusNotFound)
	}
}

// frame renders one reply record the way docs/api.md writes it down.
func frame(status int, cache string, terminal int, body string) string {
	return fmt.Sprintf("%d %s %d %d\n%s\n", status, cache, terminal, len(body), body)
}

func TestUnsettledBatchLinesGoDownTheRankWalk(t *testing.T) {
	ok := frame(200, "miss", 0, `{"cycles":9}`)
	cases := []struct {
		name    string
		batch   func(w http.ResponseWriter, n int)
		settled int // rows the batch reply answers; the rest must cost one /run each
	}{
		{"whole reply", func(w http.ResponseWriter, n int) { fmt.Fprint(w, strings.Repeat(ok, n)) }, 6},
		{"terminal 503 record", func(w http.ResponseWriter, n int) {
			fmt.Fprint(w, ok+ok+frame(503, "-", 1, `{"error":"service shutting down"}`))
		}, 2},
		{"saturation 503 record", func(w http.ResponseWriter, n int) {
			fmt.Fprint(w, ok+frame(503, "-", 0, `{"error":"run queue saturated; retry"}`)+ok)
		}, 1},
		{"short reply", func(w http.ResponseWriter, n int) { fmt.Fprint(w, ok+ok+ok+ok[:len(ok)-5]) }, 3},
		{"malformed reply", func(w http.ResponseWriter, n int) { fmt.Fprint(w, "<html>hello</html>\n") }, 0},
		{"more records than lines", func(w http.ResponseWriter, n int) { fmt.Fprint(w, strings.Repeat(ok, n+3)) }, 6},
		{"deterministic error record", func(w http.ResponseWriter, n int) {
			fmt.Fprint(w, frame(400, "-", 0, `{"error":"spec x: bad"}`)+strings.Repeat(ok, n-1))
		}, 6},
		{"backend without the route", nil, 0},
		{"connection killed", func(w http.ResponseWriter, n int) { panic(http.ErrAbortHandler) }, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fake := &fakeBatchBackend{batch: c.batch}
			backend := httptest.NewServer(fake)
			defer backend.Close()
			// One fake behind both IDs: wherever a variant's rank walk
			// starts, it lands on the same counters.
			rt, err := New(Options{Backends: []string{backend.URL, backend.URL}, SweepConcurrency: 1, RouterCacheBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			planner, err := clusterTier{rt}.Begin(httptest.NewRequest(http.MethodPost, "/sweep", nil))
			if err != nil {
				t.Fatal(err)
			}
			run := expandStealGrid(t, 530)[:6]
			var rows []Row
			alive := planner(service.SweepModel{}, nil).Resolve(context.Background(), run, 0, 0, func(l service.SweepLine) {
				rows = append(rows, l.(Row))
			})
			if !alive || len(rows) != len(run) {
				t.Fatalf("resolve emitted %d of %d rows (alive=%v)", len(rows), len(run), alive)
			}
			for i, row := range rows {
				// A prefix settles in order; the rank walk keeps it.
				if row.Index != run[i].Index {
					t.Fatalf("row %d is variant %d, want %d", i, row.Index, run[i].Index)
				}
				wantErr := c.name == "deterministic error record" && i == 0
				if (row.Error != "") != wantErr {
					t.Fatalf("row %d: %+v", i, row)
				}
				if want := `{"cycles":9}`; i < c.settled && !wantErr && string(row.Result) != want {
					t.Fatalf("row %d result %s, want the batch record's %s", i, row.Result, want)
				}
			}
			if got, want := fake.runs.Load(), int64(len(run)-c.settled); got != want {
				t.Fatalf("%d /run calls after a batch that settled %d of %d, want %d", got, c.settled, len(run), want)
			}
			if c.batch != nil && fake.batches.Load() != 1 {
				t.Fatalf("%d /batch calls, want 1", fake.batches.Load())
			}
			// One failed or terminal batch is one strike, as one attempt
			// would be: no circuit opens.
			for i, sh := range rt.view().shards {
				if st := sh.breaker.State(); st != breakerClosed {
					t.Fatalf("shard %d breaker %q after one batch", i, st)
				}
			}
			// What the batch settled with a 200 is in the router cache.
			if hits := rt.cacheHits.Value(); hits != 0 {
				t.Fatalf("cold resolve counted %d router-cache hits", hits)
			}
			var cached []Row
			planner(service.SweepModel{}, nil).Resolve(context.Background(), run, 0, 0, func(l service.SweepLine) {
				cached = append(cached, l.(Row))
			})
			for _, row := range cached {
				wantErr := c.name == "deterministic error record" && row.Index == run[0].Index
				if !wantErr && row.Cache != routerHit {
					t.Fatalf("repeat row %d was %q, want %q", row.Index, row.Cache, routerHit)
				}
			}
		})
	}
}

func TestBatchOfKIsAllowedKAttemptTimeouts(t *testing.T) {
	// With -attempt-timeout set, a run of K that takes longer than one
	// attempt — K variants do — must not fail a healthy owner over: the
	// call gets K times the bound. One bound is still what a run of one
	// (a plain /run) gets.
	srv, err := service.New(service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := &chaos.Injector{}
	var runs atomic.Int64
	h := in.Middleware(srv.Handler())
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" {
			runs.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		owner.Close()
		srv.Close()
	})
	rt, err := New(Options{Backends: []string{owner.URL}, SweepConcurrency: 1, AttemptTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	planner, err := clusterTier{rt}.Begin(httptest.NewRequest(http.MethodPost, "/sweep", nil))
	if err != nil {
		t.Fatal(err)
	}
	in.SetDelay(450 * time.Millisecond)
	in.ArmPath(chaos.Slow, -1, "/batch")
	run := expandStealGrid(t, 540)[:4]
	var rows []Row
	alive := planner(service.SweepModel{Name: "tl"}, nil).Resolve(context.Background(), run, 0, 0, func(l service.SweepLine) {
		rows = append(rows, l.(Row))
	})
	if !alive || len(rows) != 4 {
		t.Fatalf("resolve emitted %d of 4 rows (alive=%v)", len(rows), alive)
	}
	for _, row := range rows {
		if row.Error != "" || row.Cache != "miss" || row.Failover != "" {
			t.Fatalf("row %+v, want a plain miss from the owner", row)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("a 450 ms batch of 4 under a 200 ms attempt bound fell back to %d /run calls", n)
	}
	if st := rt.view().shards[0].breaker.State(); st != breakerClosed {
		t.Fatalf("owner's breaker %q after a slow but answered batch", st)
	}
}

func BenchmarkClusterColdSweep(b *testing.B) {
	// An in-process router over two workers streaming a never-seen
	// 512-variant tl grid: the batch path end to end. Rows/s and
	// allocations per row are the figures; at -benchtime 1x (CI) it is a
	// smoke of the same path. The access log (each stream's manifest
	// probe is a logged 404) would land inside the result line.
	log.SetOutput(io.Discard)
	b.Cleanup(func() { log.SetOutput(os.Stderr) })
	urls := make([]string, 2)
	for i := range urls {
		srv, err := service.New(service.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		urls[i] = ts.URL
	}
	rt, err := New(Options{Backends: urls, RouterCacheBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(front.Close)

	const variants = 512
	bodies := make([][]byte, b.N)
	for i := range bodies {
		req, _ := countGrid(b, 600+i, variants, "tl")
		bodies[i], _ = json.Marshal(req)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(front.URL+"/sweep", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			b.Fatal(err)
		}
		summary, done, err := service.DecodeSweepStream(resp.Body, nil)
		resp.Body.Close()
		if err != nil || !done || summary.Rows != variants || summary.Errors != 0 {
			b.Fatalf("sweep %d: done=%v summary=%+v err=%v", i, done, summary, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.N*variants)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*variants), "allocs/row")
}
