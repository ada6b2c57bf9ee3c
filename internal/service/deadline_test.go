// Deadline and cycle-cap tests: the server-side request timeout (a
// simulation over budget is interrupted and answered 504, and the
// worker that ran it goes straight back to useful work) and the
// validation-time max_cycles cap.
package service

import (
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

// slowSpec is a workload guaranteed to outlive a small deadline: its
// stream master keeps issuing until cycle ~400k, and it runs the
// pin-accurate RTL model, so the simulator must chew through at least
// one full interrupt stride (2^18 cycles of per-cycle kernel work —
// milliseconds on any host) before the first deadline check can fire.
// The event-driven TLM would be useless here: it can clear the whole
// workload inside the deadline.
func slowSpec(salt int) map[string]any {
	sp := testSpec(salt)
	sp.Masters[1].Count = 20000
	sp.Masters[1].Period = 20
	return map[string]any{"spec": sp, "model": "rtl"}
}

func TestRequestDeadlineAnswers504WithoutPoisoningThePool(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, RequestTimeout: time.Millisecond})

	status, _, body := post(t, ts.URL+"/run", slowSpec(900))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("over-budget run: %d %s", status, body)
	}
	if !strings.Contains(string(body), "request deadline") {
		t.Fatalf("504 body %q does not name the deadline", body)
	}

	// A 504 is an abandoned computation, not a result: it must never be
	// cached or persisted, so the identical request recomputes (and
	// deterministically exceeds the deadline again).
	status, hdr, _ := post(t, ts.URL+"/run", slowSpec(900))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("repeat over-budget run: %d", status)
	}
	if hdr.Get("X-Cache") == "hit" {
		t.Fatal("an interrupted simulation was served from cache")
	}

	// The ONE worker that was interrupted must be back in the pool
	// serving normal traffic — an interrupt that leaked the worker
	// would wedge this request forever (well, until the test timeout).
	status, _, body = post(t, ts.URL+"/run", map[string]any{"spec": testSpec(901), "model": "tl"})
	if status != http.StatusOK {
		t.Fatalf("post-interrupt run: %d %s", status, body)
	}
}

func TestRequestDeadlineAppliesToCompareAndSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, RequestTimeout: time.Millisecond})

	req := slowSpec(910)
	delete(req, "model")
	status, _, body := post(t, ts.URL+"/compare", req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("over-budget compare: %d %s", status, body)
	}

	// Sweep rows ride the same job path: an over-budget variant becomes
	// an error row naming the deadline, never a hung stream.
	sweepReq := map[string]any{
		"base":  slowSpec(911)["spec"],
		"model": "rtl",
		"axes": []map[string]any{
			{"param": "bi_enabled", "values": []bool{true}},
		},
	}
	_, rows, summary := sweepBody(t, ts.URL, sweepReq)
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	if summary.Errors != 1 || !strings.Contains(rows[0].Error, "request deadline") {
		t.Fatalf("row error %q summary %+v, want a deadline error row", rows[0].Error, summary)
	}
}

// TestRunRejectsOversizedAddrMap: a bank count the DDR engine cannot
// build is a 400 at validation, not a worker's crash.
func TestRunRejectsOversizedAddrMap(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, bankBits := range []uint{6, 45} {
		sp := testSpec(930)
		sp.Params.AddrMap.BankBits = bankBits
		status, _, body := post(t, ts.URL+"/run", map[string]any{"spec": sp, "model": "tl"})
		if status != http.StatusBadRequest || !strings.Contains(string(body), "bank bits") {
			t.Fatalf("BankBits %d: %d %s", bankBits, status, body)
		}
	}
}

func TestMaxCyclesCapRejectsAtValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxCycles: 100_000})

	sp := testSpec(920)
	sp.MaxCycles = 1_000_000_000
	status, _, body := post(t, ts.URL+"/run", map[string]any{"spec": sp, "model": "tl"})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the server cap") {
		t.Fatalf("over-cap /run: %d %s", status, body)
	}

	// The same cap guards every variant of a sweep and an analyze — a
	// pathological budget must not slip in through the grid.
	grid := map[string]any{
		"base":  sp,
		"model": "tl",
		"axes": []map[string]any{
			{"param": "bi_enabled", "values": []bool{true, false}},
		},
	}
	status, _, body = post(t, ts.URL+"/sweep", grid)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the server cap") {
		t.Fatalf("over-cap /sweep: %d %s", status, body)
	}
	grid["metric"] = "cycles"
	status, _, body = post(t, ts.URL+"/sweep/analyze", grid)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the server cap") {
		t.Fatalf("over-cap /sweep/analyze: %d %s", status, body)
	}

	// In budget: flows normally.
	sp.MaxCycles = 50_000
	status, _, body = post(t, ts.URL+"/run", map[string]any{"spec": sp, "model": "tl"})
	if status != http.StatusOK {
		t.Fatalf("in-budget /run: %d %s", status, body)
	}
}

func FuzzRetryWait(f *testing.F) {
	for _, seed := range []int64{0, 1, -3, 60, 2, 5, 6, -18446744067,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, secs int64) {
		wait := RetryWaitSeconds(int(secs))
		// The one invariant executePatient relies on: whatever the
		// scheduler advertised — zero, negative, overflow — the sleep
		// lands in [MinRetryWait, MaxRetryWait]. Anything below hammers
		// a saturated pool; anything above parks a sweep worker.
		if wait < MinRetryWait || wait > MaxRetryWait {
			t.Fatalf("RetryWaitSeconds(%d) = %v outside [%v, %v]", secs, wait, MinRetryWait, MaxRetryWait)
		}
	})
}
