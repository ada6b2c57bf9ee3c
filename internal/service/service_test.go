package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/lru"
	"repro/internal/sched"
	"repro/internal/spec"
)

// testSpec returns a small distinct workload; vary salt to defeat the
// cache.
func testSpec(salt int) spec.Spec {
	return spec.Spec{
		SpecVersion: spec.Version,
		Name:        fmt.Sprintf("svc/test-%d", salt),
		Params:      config.Default(2),
		Masters: []spec.GenSpec{
			{Kind: spec.KindSequential, Base: 0, Beats: 8, Count: 20 + salt, Gap: 2},
			{Kind: spec.KindStream, Base: 0x80000, Beats: 4, Period: 40, Count: 20},
		},
	}
}

// newTestServer returns a server plus its httptest frontend.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opt)
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

// post sends a JSON request body and returns status, headers, body.
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

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	status, hdr, body := post(t, ts.URL+"/run", map[string]any{"spec": testSpec(0), "model": "tl"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first request X-Cache = %q", hdr.Get("X-Cache"))
	}
	var res RunResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || !res.Completed || res.Model != "TL" {
		t.Fatalf("implausible result: %+v", res)
	}
	wantHash, _ := testSpec(0).Hash()
	if res.Hash != wantHash || hdr.Get("X-Spec-Hash") != wantHash {
		t.Fatalf("hash mismatch: %s vs %s", res.Hash, wantHash)
	}
	if res.Stats == nil || res.Stats.TotalTxns() == 0 {
		t.Fatal("stats missing")
	}

	// Both models, distinct cache keys.
	status2, _, body2 := post(t, ts.URL+"/run", map[string]any{"spec": testSpec(0), "model": "rtl"})
	if status2 != http.StatusOK {
		t.Fatalf("rtl status %d: %s", status2, body2)
	}
	var res2 RunResponse
	if err := json.Unmarshal(body2, &res2); err != nil {
		t.Fatal(err)
	}
	if res2.Model != "RTL" || res2.Cycles == 0 {
		t.Fatalf("rtl result: %+v", res2)
	}
}

func TestRepeatRequestServedByteIdenticalFromCache(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	req := map[string]any{"spec": testSpec(1)}
	status1, hdr1, body1 := post(t, ts.URL+"/compare", req)
	if status1 != http.StatusOK {
		t.Fatalf("status %d: %s", status1, body1)
	}
	if hdr1.Get("X-Cache") != "miss" {
		t.Fatalf("first X-Cache = %q", hdr1.Get("X-Cache"))
	}
	jobsAfterFirst := srv.CountersSnapshot().Jobs

	status2, hdr2, body2 := post(t, ts.URL+"/compare", req)
	if status2 != http.StatusOK {
		t.Fatalf("status %d", status2)
	}
	if hdr2.Get("X-Cache") != "hit" {
		t.Fatalf("repeat X-Cache = %q", hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs:\n%s\n%s", body1, body2)
	}
	c := srv.CountersSnapshot()
	if c.Jobs != jobsAfterFirst {
		t.Fatalf("repeat request re-simulated: %d -> %d jobs", jobsAfterFirst, c.Jobs)
	}
	if c.CacheHits == 0 {
		t.Fatal("cache hit not counted")
	}
}

func TestConcurrentDuplicatesCoalesceIntoOneSimulation(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 4, Queue: 64})
	const dups = 16
	req := map[string]any{"spec": testSpec(2)}

	var wg sync.WaitGroup
	bodies := make([][]byte, dups)
	statuses := make([]int, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/compare", "application/json", bytes.NewReader(buf))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i := 0; i < dups; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	c := srv.CountersSnapshot()
	if c.Jobs != 1 {
		t.Fatalf("%d duplicate submissions ran %d simulations, want 1", dups, c.Jobs)
	}
	if c.Coalesced+c.CacheHits != dups-1 {
		t.Fatalf("coalesced %d + hits %d != %d", c.Coalesced, c.CacheHits, dups-1)
	}

	// And afterwards the result is cached: one more request, still one job.
	_, hdr, _ := post(t, ts.URL+"/compare", req)
	if hdr.Get("X-Cache") != "hit" {
		t.Fatalf("post-coalesce X-Cache = %q", hdr.Get("X-Cache"))
	}
	if got := srv.CountersSnapshot().Jobs; got != 1 {
		t.Fatalf("jobs grew to %d", got)
	}
}

func TestScenarioByName(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	status, _, body := post(t, ts.URL+"/compare", map[string]any{"scenario": "seq/read-dominant"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var res CompareResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Name != "seq/read-dominant" || res.RTLCycles == 0 || res.TLMCycles == 0 || !res.Completed {
		t.Fatalf("result %+v", res)
	}

	status, _, body = post(t, ts.URL+"/compare", map[string]any{"scenario": "no/such"})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "unknown scenario") {
		t.Fatalf("unknown scenario: status %d body %s", status, body)
	}
}

func TestScenariosListing(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []ScenarioInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(spec.Scenarios()) {
		t.Fatalf("%d scenarios listed", len(infos))
	}
	for _, info := range infos {
		if info.Name == "" || len(info.Hash) != 64 || info.Masters == 0 {
			t.Fatalf("bad entry %+v", info)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 3, Queue: 7})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		OK       bool `json:"ok"`
		Workers  int  `json:"workers"`
		QueueCap int  `json:"queue_capacity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Workers != 3 || h.QueueCap != 7 {
		t.Fatalf("healthz %+v", h)
	}
}

func TestValidationErrorsAreDescriptive(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	bad := testSpec(3)
	bad.Masters[0].Count = 0
	bad.Masters[0].Beats = 0
	status, _, body := post(t, ts.URL+"/run", map[string]any{"spec": bad})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d: %s", status, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	// Both problems reported at once.
	if !strings.Contains(e.Error, "count") || !strings.Contains(e.Error, "beats") {
		t.Fatalf("error not descriptive: %q", e.Error)
	}
}

func TestRequestShapeErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		req  any
		want string
	}{
		{"empty", map[string]any{}, "spec or a scenario"},
		{"both", map[string]any{"spec": testSpec(4), "scenario": "seq/read-dominant"}, "both"},
		{"bad model", map[string]any{"spec": testSpec(4), "model": "spice"}, "unknown model"},
	}
	for _, c := range cases {
		status, _, body := post(t, ts.URL+"/run", c.req)
		if status != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: status %d body %s", c.name, status, body)
		}
	}
	// Unknown fields rejected (strict decode).
	status, _, body := post(t, ts.URL+"/compare", map[string]any{"spce": testSpec(4)})
	if status != http.StatusBadRequest {
		t.Errorf("typo'd field accepted: %d %s", status, body)
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: %d", resp.StatusCode)
	}
}

func TestBackpressureRejectsWhenSaturated(t *testing.T) {
	// One worker, one queue slot. Saturate the pool deterministically
	// (the worker held on a channel, the queue slot filled); a
	// submission arriving now must get 503 with Retry-After rather
	// than queue unboundedly, and capacity must flow again after the
	// queue drains.
	srv, ts := newTestServer(t, Options{Workers: 1, Queue: 1})
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

	buf, _ := json.Marshal(map[string]any{"spec": testSpec(10)})
	resp, err := http.Post(ts.URL+"/compare", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated service answered %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := srv.CountersSnapshot().Rejected; got != 1 {
		t.Fatalf("rejection counter %d", got)
	}

	// Drain the pool: the same request must now run (not be poisoned
	// by the earlier rejection's flight bookkeeping).
	close(block)
	w1()
	w2()
	status, hdr, body := post(t, ts.URL+"/compare", map[string]any{"spec": testSpec(10)})
	if status != http.StatusOK {
		t.Fatalf("post-drain status %d: %s", status, body)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("post-drain X-Cache = %q", hdr.Get("X-Cache"))
	}
}

func TestSaturatedDuplicatesAllGet503(t *testing.T) {
	// With the pool saturated, concurrent identical requests race
	// between becoming the (rejected) flight leader and coalescing
	// onto it. Whichever side each lands on, every response must be a
	// real 503 with a JSON error body — a coalesced waiter must never
	// observe the rejected flight as a zero-valued response.
	srv, ts := newTestServer(t, Options{Workers: 1, Queue: 1})
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
	defer func() { close(block); w1(); w2() }()

	buf, _ := json.Marshal(map[string]any{"spec": testSpec(11)})
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/compare", "application/json", bytes.NewReader(buf))
				if err != nil {
					t.Errorf("round %d: %v", round, err)
					return
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("round %d: status %d body %q", round, resp.StatusCode, body)
				}
				if !bytes.Contains(body, []byte("saturated")) {
					t.Errorf("round %d: body %q", round, body)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// The memory tier as New builds it, capped at two entries.
	c := lru.NewCache(DefaultCacheBytes, 2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Get("a") // refresh a; b is now LRU
	c.Put("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatal("a lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
}

// healthz fetches and decodes GET /healthz.
func healthz(t *testing.T, url string) Health {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRetryAfterScalesWithPoolLoad(t *testing.T) {
	// The Retry-After a 503 carries is derived from the pool's actual
	// backlog, not a constant: a saturated pool must tell clients to
	// back off longer than an idle one, so retries thin out exactly
	// when the server is deepest under water.
	srv, ts := newTestServer(t, Options{Workers: 1, Queue: 4})
	idle := healthz(t, ts.URL)
	if !idle.OK || idle.RetryAfter != 1 {
		t.Fatalf("idle health %+v, want retry_after 1", idle)
	}
	if idle.Pid != os.Getpid() {
		t.Fatalf("health pid %d", idle.Pid)
	}

	// Hold the worker and fill every queue slot: backlog 5 on 1 worker.
	block := make(chan struct{})
	started := make(chan struct{})
	waits := []func(){}
	w, err := srv.sched.Submit("t", sched.Interactive, func() { close(started); <-block })
	if err != nil {
		t.Fatal(err)
	}
	waits = append(waits, w)
	<-started
	for i := 0; i < 4; i++ {
		w, err := srv.sched.Submit("t", sched.Interactive, func() {})
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, w)
	}

	sat := healthz(t, ts.URL)
	if sat.RetryAfter <= idle.RetryAfter {
		t.Fatalf("saturated retry_after %d not above idle %d", sat.RetryAfter, idle.RetryAfter)
	}
	if sat.Queued != 4 || sat.InFlight != 1 {
		t.Fatalf("saturated occupancy %+v", sat)
	}

	// A rejected request's header carries the same live number.
	buf, _ := json.Marshal(map[string]any{"spec": testSpec(40)})
	resp, err := http.Post(ts.URL+"/compare", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status %d", resp.StatusCode)
	}
	got, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || got != sat.RetryAfter {
		t.Fatalf("503 Retry-After %q, healthz said %d", resp.Header.Get("Retry-After"), sat.RetryAfter)
	}

	close(block)
	for _, w := range waits {
		w()
	}
}
