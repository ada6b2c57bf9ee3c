// Failover-path tests: the rendezvous rank order, the circuit
// breaker's state machine, and the router behaviors built on them —
// hung shards cut by the attempt timeout, kill-then-recover sweeps,
// client disconnects mid-failover. The chaos package supplies the
// faults; everything here runs real service backends behind httptest.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/service"
)

func TestRankHeadsWithOwnerAndPermutes(t *testing.T) {
	for salt := 0; salt < 40; salt++ {
		sp := testSpec(salt)
		hash, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 3, 5, 8} {
			ranks := RankIDs(hash, ids(n))
			if len(ranks) != n {
				t.Fatalf("RankIDs(%q, 0..%d-1) has %d entries", hash, n, len(ranks))
			}
			if ranks[0] != OwnerID(hash, ids(n)) {
				t.Fatalf("RankIDs(%q, 0..%d-1)[0] = %d, OwnerID = %d", hash, n, ranks[0], OwnerID(hash, ids(n)))
			}
			seen := make([]bool, n)
			for _, idx := range ranks {
				if idx < 0 || idx >= n || seen[idx] {
					t.Fatalf("RankIDs(%q, 0..%d-1) = %v is not a permutation", hash, n, ranks)
				}
				seen[idx] = true
			}
			// Determinism: the failover order must be the same on every
			// router replica, or replicas would place failover traffic on
			// different shards and shred the cache.
			again := RankIDs(hash, ids(n))
			for i := range ranks {
				if ranks[i] != again[i] {
					t.Fatalf("RankIDs(%q, 0..%d-1) unstable: %v vs %v", hash, n, ranks, again)
				}
			}
		}
	}
	// Degenerate single-shard cluster: rank is trivially [0].
	if r := RankIDs("anything", ids(1)); len(r) != 1 || r[0] != 0 {
		t.Fatalf("RankIDs(_, ids(1)) = %v", r)
	}
}

func TestBreakerTripsAfterConsecutiveFailuresOnly(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	// A probe that never succeeds, on a long interval: this test drives
	// the closed-state bookkeeping only.
	b := newBreaker(3, time.Hour, func(context.Context) error { return errors.New("down") }, stop)

	if b.State() != breakerClosed || !b.allow() {
		t.Fatalf("new breaker state %q allow %v", b.State(), b.allow())
	}
	// Two failures, then a success: the streak must reset — a single
	// flaky dial plus background noise must not eject a healthy shard.
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	if b.State() != breakerClosed {
		t.Fatalf("state %q after interrupted streak, want closed", b.State())
	}
	b.failure() // third CONSECUTIVE failure
	if b.State() != breakerOpen || b.allow() {
		t.Fatalf("state %q allow %v after threshold, want open/refusing", b.State(), b.allow())
	}
}

func TestBreakerProbeRecoveryAndHalfOpenTrial(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	var healthy atomic.Bool
	probes := atomic.Int32{}
	b := newBreaker(1, 2*time.Millisecond, func(context.Context) error {
		probes.Add(1)
		if healthy.Load() {
			return nil
		}
		return errors.New("still down")
	}, stop)

	b.failure() // threshold 1: open immediately
	if b.State() != breakerOpen {
		t.Fatalf("state %q, want open", b.State())
	}
	// While the backend stays down, the prober must keep polling
	// without ever moving the state.
	deadline := time.Now().Add(5 * time.Second)
	for probes.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d probes fired", probes.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if b.State() != breakerOpen {
		t.Fatalf("state %q while backend down, want open", b.State())
	}

	// Backend heals: the next probe moves the breaker to half-open and
	// the prober exits — the next REAL request is the trial.
	healthy.Store(true)
	for b.State() != breakerHalfOpen {
		if time.Now().After(deadline) {
			t.Fatalf("state %q, never reached half-open", b.State())
		}
		time.Sleep(time.Millisecond)
	}
	if !b.allow() {
		t.Fatal("half-open breaker must admit the trial request")
	}

	// Trial fails: straight back to open, prober restarted.
	healthy.Store(false)
	b.failure()
	if b.State() != breakerOpen {
		t.Fatalf("state %q after failed trial, want open", b.State())
	}
	healthy.Store(true)
	for b.State() != breakerHalfOpen {
		if time.Now().After(deadline) {
			t.Fatalf("prober did not restart after the failed trial (state %q)", b.State())
		}
		time.Sleep(time.Millisecond)
	}
	// Trial succeeds: closed, traffic flows.
	b.success()
	if b.State() != breakerClosed || !b.allow() {
		t.Fatalf("state %q allow %v after successful trial", b.State(), b.allow())
	}
}

// chaosBackend is a real service worker with a chaos injector between
// the router and its handler.
func chaosBackend(t *testing.T, opt service.Options) (*chaos.Injector, *httptest.Server) {
	t.Helper()
	srv, err := service.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	in := &chaos.Injector{}
	ts := httptest.NewServer(in.Middleware(srv.Handler()))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return in, ts
}

// specOwnedBy finds a test spec whose owner (in an n-shard cluster) is
// the wanted shard.
func specOwnedBy(t *testing.T, n, want int) (map[string]any, string) {
	t.Helper()
	for salt := 100; salt < 200; salt++ {
		sp := testSpec(salt)
		hash, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if OwnerID(hash, ids(n)) == want {
			return map[string]any{"spec": sp, "model": "tl"}, hash
		}
	}
	t.Fatalf("no test spec owned by shard %d of %d", want, n)
	return nil, ""
}

func TestRouterAttemptTimeoutCutsHungShardAndFailsOver(t *testing.T) {
	// Shard 1 wedges (its handler hangs forever) but keeps answering
	// /healthz — the nastiest failure shape, because nothing errors.
	// The router's per-attempt timeout must cut the attempt, charge the
	// breaker, and serve the spec from the next-ranked shard.
	_, tsA := newBackend(t, service.Options{Workers: 2})
	inB, tsB := chaosBackend(t, service.Options{Workers: 2})
	inB.ArmPath(chaos.Hang, -1, "/run")

	rt, err := New(Options{
		Backends:       []string{tsA.URL, tsB.URL},
		AttemptTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	req, _ := specOwnedBy(t, 2, 1)
	start := time.Now()
	status, hdr, body := post(t, front.URL+"/run", req)
	if status != http.StatusOK {
		t.Fatalf("hung-owner /run: %d %s", status, body)
	}
	if hdr.Get("X-Failover") != "1->0" || hdr.Get("X-Shard") != "0" {
		t.Fatalf("X-Failover %q X-Shard %q, want 1->0 via shard 0", hdr.Get("X-Failover"), hdr.Get("X-Shard"))
	}
	// The hang cost at most roughly one attempt timeout, not forever.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failover took %v — the attempt timeout did not cut the hang", elapsed)
	}
}

func TestRouterDoesNotFailOverDeterministicErrors(t *testing.T) {
	// A 400 is the same answer on every shard: failing it over would
	// repeat the rejection more expensively and mask the client's bug
	// as a cluster problem. The response is relayed from the owner, no
	// failover tag, and the owner's breaker stays closed — a rejected
	// spec is a LIVE backend doing its job.
	_, tsA := newBackend(t, service.Options{Workers: 2})
	_, tsB := newBackend(t, service.Options{Workers: 2})
	rt, err := New(Options{Backends: []string{tsA.URL, tsB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	sp := testSpec(31)
	sp.Params.BusBytes = 3 // not a power of two: every shard rejects it identically
	status, hdr, body := post(t, front.URL+"/run", map[string]any{"spec": sp, "model": "tl"})
	if status != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d %s", status, body)
	}
	if hdr.Get("X-Failover") != "" {
		t.Fatalf("deterministic 400 failed over: %q", hdr.Get("X-Failover"))
	}
	for i, sh := range rt.view().shards {
		if st := sh.breaker.State(); st != breakerClosed {
			t.Fatalf("shard %d breaker %q after a client error, want closed", i, st)
		}
	}
}

func TestRouterSweepKillThenRecover(t *testing.T) {
	// Satellite: the 502-then-recover path. Shard 1's /run connection
	// is killed enough times to trip its breaker (healthz stays up, so
	// the probe loop can see recovery); a first sweep fails its
	// variants over to shard 0 with zero error rows. Once the breaker's
	// probe moves it to half-open, a second sweep's trial request
	// succeeds mid-sweep and shard 1 resumes serving its own keyspace.
	_, tsA := newBackend(t, service.Options{Workers: 2})
	inB, tsB := chaosBackend(t, service.Options{Workers: 2})

	rt, err := New(Options{
		Backends:         []string{tsA.URL, tsB.URL},
		BreakerThreshold: 2,
		BreakerInterval:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	variants := expandGrid(t, 47)
	bOwned := 0
	for _, v := range variants {
		if OwnerID(v.Hash, ids(2)) == 1 {
			bOwned++
		}
	}
	if bOwned <= 2 {
		t.Fatalf("degenerate partition: shard 1 owns %d of %d", bOwned, len(variants))
	}

	// Exactly threshold kills: the first two /run attempts at shard 1
	// die like a SIGKILLed process, the breaker opens, and every
	// remaining B-owned variant fails over without paying a dial.
	inB.ArmPath(chaos.Kill, 2, "/run")
	_, rows, summary, done := readSweep(t, front.URL, gridRequest(47))
	if !done || summary.Errors != 0 || len(rows) != 8 {
		t.Fatalf("kill sweep: %d rows errors=%d done=%v", len(rows), summary.Errors, done)
	}
	failedOver := 0
	for _, row := range rows {
		if row.Failover != "" {
			failedOver++
		}
	}
	if failedOver == 0 {
		t.Fatal("no failover rows despite killed connections")
	}

	// Recovery: the injector is spent, so the background probe finds
	// /healthz (it always did) and half-opens the breaker.
	deadline := time.Now().Add(5 * time.Second)
	for rt.view().shards[1].breaker.State() == breakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker stuck %q", rt.view().shards[1].breaker.State())
		}
		time.Sleep(time.Millisecond)
	}

	// Fresh grid (different salt: no cache masking): shard 1 must be
	// serving its own keyspace again, breaker closed by the trial.
	_, rows, summary, done = readSweep(t, front.URL, gridRequest(48))
	if !done || summary.Errors != 0 {
		t.Fatalf("recovery sweep: errors=%d done=%v", summary.Errors, done)
	}
	served := 0
	for _, row := range rows {
		if row.Shard == 1 {
			served++
			if row.Failover != "" {
				t.Fatalf("recovered shard served %s via failover %q", row.Name, row.Failover)
			}
		}
	}
	if served == 0 {
		t.Fatal("recovered shard served nothing — breaker never readmitted it")
	}
	if st := rt.view().shards[1].breaker.State(); st != breakerClosed {
		t.Fatalf("breaker %q after successful trial, want closed", st)
	}
}

func TestRouterSweepClientDisconnectAbortsFailover(t *testing.T) {
	// Satellite: a client that vanishes while its variants are mid-
	// failover-retry must take the whole fan-out down with it — the
	// fallback attempt aborted, every router goroutine freed, and the
	// cluster still healthy for the next caller.
	inA, tsA := chaosBackend(t, service.Options{Workers: 2})
	_, tsB := newBackend(t, service.Options{Workers: 2})
	rt, err := New(Options{Backends: []string{tsA.URL, tsB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	tsB.Close()                         // every B-owned variant fails over to A...
	inA.ArmPath(chaos.Hang, -1, "/run") // ...where the fallback attempt wedges

	transport := &http.Transport{}
	t.Cleanup(transport.CloseIdleConnections)
	client := &http.Client{Transport: transport}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/sweep", strings.NewReader(mustJSON(t, gridRequest(53))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep goroutines are counted by stack, not by runtime.NumGoroutine
	// against a baseline: the dead shard's breaker prober and net/http's
	// idle keep-alive connections come and go on their own schedule.
	sweepGoroutines := func() (n int, stacks []byte) {
		stacks = make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		for _, g := range strings.Split(string(stacks), "\n\n") {
			if strings.Contains(g, "service.(*SweepEngine).stream") || strings.Contains(g, "service.runChunk") ||
				strings.Contains(g, "sweep.Grid.Walk") {
				n++
			}
		}
		return n, stacks
	}
	// Give the fan-out a moment to park every worker inside a hung
	// fallback attempt, then vanish.
	time.Sleep(100 * time.Millisecond)
	if n, _ := sweepGoroutines(); n < 2 {
		t.Fatalf("%d sweep goroutines mid-sweep, want the handler and its workers", n)
	}
	cancel()
	resp.Body.Close()

	// Every goroutine the sweep spawned must drain: the hung attempts
	// are cut by the request context, not leaked behind it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, stacks := sweepGoroutines()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sweep goroutines still alive — sweep leaked\n%s", n, stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The cluster survives the drill: disarm the fault and serve.
	inA.Clear()
	status, _, body := post(t, front.URL+"/run", map[string]any{"spec": testSpec(53), "model": "tl"})
	if status != http.StatusOK {
		t.Fatalf("post-disconnect /run: %d %s", status, body)
	}
}

func TestRouterRejectsPathologicalMaxCycles(t *testing.T) {
	// The router enforces the cluster's cycle cap at validation, before
	// any forward: a fat-fingered max_cycles must cost a 400, not a
	// shard pinned for a trillion cycles.
	_, ts := newBackend(t, service.Options{Workers: 1})
	rt, err := New(Options{Backends: []string{ts.URL}, MaxCycles: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	sp := testSpec(61)
	sp.MaxCycles = 1_000_000_000
	status, _, body := post(t, front.URL+"/run", map[string]any{"spec": sp, "model": "tl"})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the cluster cap") {
		t.Fatalf("overbudget /run: %d %s", status, body)
	}

	grid := gridRequest(61)
	grid["base"] = sp
	status, _, body = post(t, front.URL+"/sweep", grid)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the cluster cap") {
		t.Fatalf("overbudget /sweep: %d %s", status, body)
	}

	// Within budget still flows.
	sp.MaxCycles = 50_000
	status, _, body = post(t, front.URL+"/run", map[string]any{"spec": sp, "model": "tl"})
	if status != http.StatusOK {
		t.Fatalf("in-budget /run: %d %s", status, body)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}
