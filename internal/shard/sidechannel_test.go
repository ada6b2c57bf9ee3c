package shard

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sweep"
)

func TestWriteBackGoesThroughTheOwnersBreaker(t *testing.T) {
	// The write-back is a store side-channel call like the probe before
	// it: bounded by healthTimeout whatever -attempt-timeout says,
	// charged to the owner's breaker, and not sent at all while the
	// owner's circuit is open.
	var posts atomic.Int32
	var hang atomic.Bool
	release := make(chan struct{})
	var tagged atomic.Pointer[http.Header]
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/results" {
			http.Error(w, "the stub owner only takes write-backs", http.StatusInternalServerError)
			return
		}
		posts.Add(1)
		if hang.Load() {
			<-release
			return
		}
		hdr := r.Header.Clone()
		tagged.Store(&hdr)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer owner.Close()
	defer close(release)

	rt, err := New(Options{
		Backends:         []string{owner.URL, "http://127.0.0.1:1"},
		SweepConcurrency: 1,
		BreakerThreshold: 1,
		BreakerInterval:  time.Hour, // an open circuit stays open for the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	vw := rt.view()
	call := sweepCall{rt: rt, vw: vw}
	key, body := cacheTestKey(3), []byte(`{"cycles":7}`)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	call.writeBack(ctx, 0, 1, key, body)
	if posts.Load() != 1 {
		t.Fatalf("a live owner received %d write-backs, want 1", posts.Load())
	}
	if got := tagged.Load().Get(service.ResultKeyHeader); got != key {
		t.Fatalf("write-back named key %q, want %q", got, key)
	}
	if got := tagged.Load().Get(service.StolenHeader); got != "0->1" {
		t.Fatalf("write-back tagged %q, want 0->1", got)
	}

	// A hung owner holds the thief for healthTimeout, not for ever (no
	// per-attempt timeout is configured), and pays for it at its breaker.
	hang.Store(true)
	start := time.Now()
	call.writeBack(ctx, 0, 1, key, body)
	if waited := time.Since(start); waited > healthTimeout+2*time.Second {
		t.Fatalf("a hung owner held the write-back for %v, want about healthTimeout (%v)", waited, healthTimeout)
	}
	if state := vw.byID[0].breaker.State(); state != breakerOpen {
		t.Fatalf("owner breaker %s after an unanswered write-back, want open", state)
	}

	// Circuit open: the write-back is not sent.
	before := posts.Load()
	call.writeBack(ctx, 0, 1, key, body)
	if posts.Load() != before {
		t.Fatal("a write-back was posted to an owner whose circuit is open")
	}
}

func TestDeadThiefFallsBackWithoutASecondCacheProbe(t *testing.T) {
	// One variant falling through the router cache is one counted miss,
	// even when its thief turns out to be dead and it goes down the
	// owner's rank walk after all.
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/results":
			http.Error(w, `{"error":"cold"}`, http.StatusNotFound)
		case r.Method == http.MethodPost && r.URL.Path == "/batch":
			fmt.Fprint(w, frame(200, "miss", 0, `{"cycles":7}`))
		default:
			http.Error(w, "unexpected call", http.StatusInternalServerError)
		}
	}))
	defer backend.Close()
	rt, err := New(Options{
		Backends:         []string{backend.URL, "http://127.0.0.1:1"},
		SweepConcurrency: 1,
		RouterCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	req := httptest.NewRequest(http.MethodPost, "/sweep", nil)
	planner, err := clusterTier{rt}.Begin(req)
	if err != nil {
		t.Fatal(err)
	}
	// Any variant will do: the owner is whoever the test says it is —
	// lane 1 (the dead shard) takes it from lane 0's queue.
	v := expandStealGrid(t, 77)[0]
	plan := planner(service.SweepModel{}, []sweep.Variant{v}) // the one probe
	var lines []service.SweepLine
	ok := plan.Resolve(context.Background(), []sweep.Variant{v}, 1, 0, func(l service.SweepLine) { lines = append(lines, l) })
	if !ok || len(lines) != 1 {
		t.Fatalf("resolve emitted %d lines (ok=%v) with a live context, want 1", len(lines), ok)
	}
	row := lines[0].(Row)
	if row.Error != "" || row.Shard != 0 || row.Stolen != "" {
		t.Fatalf("row %+v, want an untagged result served by shard 0", row)
	}
	if misses := rt.cacheMisses.Value(); misses != 1 {
		t.Fatalf("one fall-through counted %d router-cache misses, want 1", misses)
	}
}
