package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/sweep"
)

// runLine renders the /run request body that runs testSpec(salt).
func runLine(t *testing.T, salt int, model string) []byte {
	t.Helper()
	req := map[string]any{"spec": testSpec(salt)}
	if model != "" {
		req["model"] = model
	}
	line, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// postRaw posts body as it is and returns the status and reply.
func postRaw(t *testing.T, url string, body []byte, hdr http.Header) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for name, vals := range hdr {
		req.Header[name] = vals
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

func TestBatchAnswersEveryLineAsItsOwnRunWould(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	cl := &Client{Base: ts.URL}

	// Seed one result through the front door: /batch must find it.
	_, _, direct7 := post(t, ts.URL+"/run", map[string]any{"spec": testSpec(7), "model": "tl"})

	bad := testSpec(3)
	bad.Params.BusBytes = 3 // not a power of two
	badLine, _ := json.Marshal(map[string]any{"spec": bad, "model": "tl"})
	wantBad, _, wantBadBody := post(t, ts.URL+"/run", map[string]any{"spec": bad, "model": "tl"})
	lines := [][]byte{
		runLine(t, 5, "tl"),
		runLine(t, 7, "tl"),                            // already cached
		[]byte(`{"spec":{"nonsense":1},"model":"tl"}`), // strict decode refuses the field
		runLine(t, 5, "tl"),                            // duplicate of line 0
		badLine,                                        // decodes, fails validation
		runLine(t, 6, "bogus"),                         // unknown model
		runLine(t, 6, "rtl"),
	}
	jobs := srv.CountersSnapshot().Jobs
	records, err := cl.RunBatch(context.Background(), false, lines, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(lines) {
		t.Fatalf("%d records for %d lines", len(records), len(lines))
	}
	wantStatus := []int{200, 200, 400, 200, wantBad, 400, 200}
	wantCache := []string{"miss", "hit", "", "hit", "", "", "miss"}
	for i, rec := range records {
		if rec.Status != wantStatus[i] || rec.Cache != wantCache[i] || rec.Terminal {
			t.Fatalf("record %d = %d %q terminal=%v, want %d %q: %s", i, rec.Status, rec.Cache, rec.Terminal, wantStatus[i], wantCache[i], rec.Body)
		}
	}
	// Record order is line order, and a record is the bytes the line's
	// own request answers with — results and error text alike.
	if !bytes.Equal(records[1].Body, direct7) || !bytes.Equal(records[0].Body, records[3].Body) {
		t.Fatal("a cached or duplicated line did not replay the first computation's bytes")
	}
	for _, c := range []struct {
		record, salt int
		model        string
	}{{0, 5, "tl"}, {6, 6, "rtl"}} {
		status, hdr, body := post(t, ts.URL+"/run", map[string]any{"spec": testSpec(c.salt), "model": c.model})
		if status != 200 || hdr.Get("X-Cache") != "hit" || !bytes.Equal(body, records[c.record].Body) {
			t.Fatalf("direct /run after the batch: %d %q, want a hit with record %d's bytes", status, hdr.Get("X-Cache"), c.record)
		}
	}
	var gotBad, wantBadErr errorResponse
	if json.Unmarshal(records[4].Body, &gotBad) != nil || json.Unmarshal(wantBadBody, &wantBadErr) != nil || gotBad.Error != wantBadErr.Error {
		t.Fatalf("invalid line's record says %q, /run says %q", gotBad.Error, wantBadErr.Error)
	}
	if !strings.Contains(string(records[2].Body), "unknown field") || !strings.Contains(string(records[5].Body), `unknown model \"bogus\" (want tl or rtl)`) {
		t.Fatalf("error records lack /run's text: %s / %s", records[2].Body, records[5].Body)
	}
	// Two distinct results were missing: two simulations, however many
	// lines named them.
	if got := srv.CountersSnapshot().Jobs - jobs; got != 2 {
		t.Fatalf("batch ran %d simulations, want 2 (specs 5 and 6; 7 was cached, the duplicate hit)", got)
	}

	// op=compare runs both models whatever selector a line carries.
	records, err = cl.RunBatch(context.Background(), true, [][]byte{runLine(t, 5, "rtl")}, nil)
	if err != nil || len(records) != 1 || records[0].Status != 200 {
		t.Fatalf("compare batch: %v %+v", err, records)
	}
	_, hdr, body := post(t, ts.URL+"/compare", map[string]any{"spec": testSpec(5)})
	if hdr.Get("X-Cache") != "hit" || !bytes.Equal(body, records[0].Body) {
		t.Fatalf("direct /compare after the batch was %q", hdr.Get("X-Cache"))
	}
}

func TestBatchShapeErrorsCostNoSimulation(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	line := runLine(t, 11, "tl")
	tooMany := bytes.Repeat(append(line, '\n'), maxSweepRun+1)
	cases := []struct {
		name, method, path string
		body               []byte
		hdr                http.Header
		status             int
		want               string
	}{
		{"GET", http.MethodGet, "/batch?op=run", nil, nil, 405, "POST required"},
		{"no op", http.MethodPost, "/batch", line, nil, 400, "not a batch operation"},
		{"sweep op", http.MethodPost, "/batch?op=sweep", line, nil, 400, "not a batch operation"},
		{"bad tenant", http.MethodPost, "/batch?op=run", line, http.Header{TenantHeader: {"no spaces"}}, 400, "not a tenant identifier"},
		{"bad class", http.MethodPost, "/batch?op=run", line, http.Header{ClassHeader: {"urgent"}}, 400, "not a scheduling class"},
		{"too many lines", http.MethodPost, "/batch?op=run", tooMany, nil, 400, fmt.Sprintf("batch of %d lines", maxSweepRun+1)},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		for name, vals := range c.hdr {
			req.Header[name] = vals
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: %d %s, want %d mentioning %q", c.name, resp.StatusCode, body, c.status, c.want)
		}
	}
	if jobs := srv.CountersSnapshot().Jobs; jobs != 0 {
		t.Fatalf("refused batches ran %d simulations", jobs)
	}
	// The bound is the longest run a sweep lane takes: a full one passes.
	full := bytes.Repeat(append(line, '\n'), maxSweepRun)
	if status, reply := postRaw(t, ts.URL+"/batch?op=run", full, nil); status != 200 || len(parseBatchReply(reply, maxSweepRun)) != maxSweepRun {
		t.Fatalf("a batch of exactly %d lines: status %d", maxSweepRun, status)
	}
}

func TestBatchReplyCutShortIsAPrefixNeverAMisparse(t *testing.T) {
	var reply []byte
	want := []BatchRecord{
		{Status: 200, Cache: "miss", Body: []byte("{\"a\":1}\n200 hit 0 2\n{}")}, // a body that looks like frames
		{Status: 400, Body: []byte(`{"error":"x"}`)},
		{Status: 503, Terminal: true, Body: []byte(`{"error":"service shutting down"}`)},
	}
	var ends []int
	for _, rec := range want {
		reply = appendBatchRecord(reply, rec)
		ends = append(ends, len(reply))
	}
	// Every truncation of the reply parses to the records that are wholly
	// inside it — the way service.Client.Do's read bound would cut it.
	for cut := 0; cut <= len(reply); cut++ {
		got := parseBatchReply(reply[:cut], len(want))
		whole := 0
		for _, end := range ends {
			if end <= cut {
				whole++
			}
		}
		if len(got) != whole {
			t.Fatalf("reply cut at %d of %d parsed to %d records, want %d", cut, len(reply), len(got), whole)
		}
		for i, rec := range got {
			if rec.Status != want[i].Status || rec.Cache != want[i].Cache || rec.Terminal != want[i].Terminal || !bytes.Equal(rec.Body, want[i].Body) {
				t.Fatalf("cut %d record %d = %+v, want %+v", cut, i, rec, want[i])
			}
		}
	}
	// More records than lines, or a frame that is not one, end the parse.
	if got := parseBatchReply(reply, 2); len(got) != 2 {
		t.Fatalf("asked for 2 records, got %d", len(got))
	}
	for _, garbage := range []string{"200 miss 0\n{}\n", "ok miss 0 2\n{}\n", "200 miss 0 -1\n{}\n", "200 miss 0 2\n{}X", "<html>404</html>\n"} {
		if got := parseBatchReply([]byte(garbage), 4); len(got) != 0 {
			t.Fatalf("malformed reply %q parsed to %+v", garbage, got)
		}
	}
}

// TestBatchFramingMatchesItsFormatString holds appendBatchRecord to the
// frame header's definition, the format string "%d %s %d %d\n", over
// generated records, and checks that parseBatchReply reads every
// record back.
func TestBatchFramingMatchesItsFormatString(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	statuses := []int{200, 400, 404, 500, 503, 0, -1, math.MaxInt}
	caches := []string{"", "hit", "miss", "coalesced", "router_hit"}
	var want []byte
	var recs []BatchRecord
	for i := range 200 {
		rec := BatchRecord{Status: statuses[i%len(statuses)], Cache: caches[rng.Intn(len(caches))], Terminal: rng.Intn(2) == 1}
		rec.Body = make([]byte, rng.Intn(300))
		rng.Read(rec.Body)
		cache, terminal := rec.Cache, 0
		if cache == "" {
			cache = "-"
		}
		if rec.Terminal {
			terminal = 1
		}
		want = fmt.Appendf(want, "%d %s %d %d\n", rec.Status, cache, terminal, len(rec.Body))
		want = append(append(want, rec.Body...), '\n')
		recs = append(recs, rec)
	}
	var reply []byte
	for _, rec := range recs {
		reply = appendBatchRecord(reply, rec)
	}
	if !bytes.Equal(reply, want) {
		t.Fatal("appendBatchRecord frames differ from the format string's")
	}
	got := parseBatchReply(reply, len(recs))
	if len(got) != len(recs) {
		t.Fatalf("parsed %d of %d records", len(got), len(recs))
	}
	for i, rec := range got {
		w := recs[i]
		if rec.Status != w.Status || rec.Cache != w.Cache || rec.Terminal != w.Terminal || !bytes.Equal(rec.Body, w.Body) {
			t.Fatalf("record %d read back as %+v, want %+v", i, rec, w)
		}
	}
}

func TestBatchWaitsOutSaturationInsteadOfAnswering503(t *testing.T) {
	// One worker, one batch-class queue slot, both held: a /run would be
	// refused 503. A batch line waits its class's backoff out — the sweep
	// it belongs to absorbs its own backpressure — and answers once the
	// pool drains.
	srv, ts := newTestServer(t, Options{Workers: 1, Queue: 1})
	block := make(chan struct{})
	var unblock sync.Once
	release := func() { unblock.Do(func() { close(block) }) }
	defer release()
	started := make(chan struct{})
	w1, err := srv.sched.Submit("t", sched.Batch, func() { close(started); <-block })
	if err != nil {
		t.Fatal(err)
	}
	<-started
	w2, err := srv.sched.Submit("t", sched.Batch, func() {})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		records []BatchRecord
		err     error
	}
	got := make(chan result, 1)
	go func() {
		records, err := (&Client{Base: ts.URL}).RunBatch(context.Background(), false, [][]byte{runLine(t, 40, "tl"), runLine(t, 41, "tl")}, nil)
		got <- result{records, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("batch answered against a saturated pool: %+v %v", r.records, r.err)
	case <-time.After(150 * time.Millisecond):
	}
	release()
	w1()
	w2()
	r := <-got
	if r.err != nil || len(r.records) != 2 {
		t.Fatalf("batch after the drain: %v, %d records", r.err, len(r.records))
	}
	for i, rec := range r.records {
		if rec.Status != 200 || rec.Cache != "miss" {
			t.Fatalf("record %d = %d %q: %s", i, rec.Status, rec.Cache, rec.Body)
		}
	}
	if rej := srv.CountersSnapshot().Rejected; rej != 0 {
		t.Fatalf("waiting lines moved the 503 counter to %d", rej)
	}
}

func TestBatchTerminalRecordEndsTheReply(t *testing.T) {
	// A worker that is shutting down answers the line that met the closed
	// scheduler with a terminal 503 record and runs nothing after it.
	srv, ts := newTestServer(t, Options{Workers: 1})
	first := runLine(t, 50, "tl")
	if status, _, _ := post(t, ts.URL+"/run", json.RawMessage(first)); status != 200 {
		t.Fatal("seeding run failed")
	}
	srv.sched.Close()
	records, err := (&Client{Base: ts.URL}).RunBatch(context.Background(), false, [][]byte{first, runLine(t, 51, "tl"), runLine(t, 52, "tl")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0].Status != 200 || records[0].Cache != "hit" ||
		records[1].Status != http.StatusServiceUnavailable || !records[1].Terminal {
		t.Fatalf("records %+v, want the cached line's hit then one terminal 503", records)
	}
}

func TestBatchClientDisconnectStopsBetweenLinesAndLeaksNothing(t *testing.T) {
	// The pool is held, so the batch parks in its first line's backoff.
	// The client hangs up: the handler must unwind without running the
	// remaining lines, and leave no goroutine behind.
	srv, ts := newTestServer(t, Options{Workers: 1, Queue: 1})
	block := make(chan struct{})
	var unblock sync.Once
	release := func() { unblock.Do(func() { close(block) }) }
	defer release()
	started := make(chan struct{})
	w1, err := srv.sched.Submit("t", sched.Batch, func() { close(started); <-block })
	if err != nil {
		t.Fatal(err)
	}
	<-started
	w2, err := srv.sched.Submit("t", sched.Batch, func() {})
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl := &Client{Base: ts.URL, HTTP: &http.Client{Transport: tr}}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.RunBatch(ctx, false, [][]byte{runLine(t, 60, "tl"), runLine(t, 61, "tl"), runLine(t, 62, "tl")}, nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-done; !Unreachable(err) {
		t.Fatalf("cancelled batch returned %v, want an unanswered call", err)
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		stack := make([]byte, 1<<20)
		t.Fatalf("goroutines %d > baseline %d after a cancelled batch\n%s", got, baseline, stack[:runtime.Stack(stack, true)])
	}
	release()
	w1()
	w2()
	if jobs := srv.CountersSnapshot().Jobs; jobs != 0 {
		t.Fatalf("an abandoned batch still ran %d simulations", jobs)
	}
}

func TestSweepRowThatFailsToEncodeIsAnErrorRowNotAGap(t *testing.T) {
	// A tier relays a 200 body that is not JSON (the router caches what a
	// backend said, unchecked). The row cannot be encoded; the variant
	// must still get exactly one line — an error row, counted as one and
	// marked failed — not a counted row nobody received.
	tier := &fakeTier{conc: []int{2}}
	tier.resolve = func(_ context.Context, v sweep.Variant, lane, from int) (SweepLine, bool) {
		line := instantLine(v, lane, from)
		if v.Index == 1 {
			line.Result = json.RawMessage(`{"cycles":`)
		}
		return line, true
	}
	engine := newFakeEngine(tier)
	rec := httptest.NewRecorder()
	postSweep(context.Background(), engine, rec, cleanGrid(75))
	lines, summary, done := engineStream(t, rec.Body)
	if !done || summary.Rows != 8 || summary.Errors != 1 || len(lines) != 8 {
		t.Fatalf("summary %+v done=%v over %d lines, want 8 rows / 1 error on 8 lines", summary, done, len(lines))
	}
	for _, l := range lines {
		if (l.Index == 1) != (l.Error != "") {
			t.Fatalf("line %+v: only variant 1 is an error row", l)
		}
		if l.Index == 1 && (l.Hash == "" || l.Result != nil || l.Cache != "" || !strings.Contains(l.Error, "encoding row")) {
			t.Fatalf("error row %+v, want the variant's identity, no result, an encoding error", l)
		}
	}
	if last := tier.saves[len(tier.saves)-1]; last.done != 7 || last.failed != 1 {
		t.Fatalf("final checkpoint %+v, want 7 done / 1 failed", last)
	}
}
