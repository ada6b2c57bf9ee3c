package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// decodeSweepRequest turns the map-shaped test grid into the typed
// request the manifest API works in.
func decodeSweepRequest(t *testing.T, req map[string]any) SweepRequest {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var typed SweepRequest
	if err := json.Unmarshal(buf, &typed); err != nil {
		t.Fatal(err)
	}
	return typed
}

// getJSON issues a GET and returns status, headers and body.
func getJSON(t *testing.T, url string) (int, http.Header, []byte) {
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

// resumeStream reads GET /sweep/{id}/resume?after=N as a sweep
// stream, requiring status 200.
func resumeStream(t *testing.T, base, id string, after int) ([]SweepRow, SweepSummary, bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/sweep/%s/resume?after=%d", base, id, after))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("resume status %d: %s", resp.StatusCode, body)
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
	return rows, summary, done
}

func TestSweepIDDeterministicAndCanonical(t *testing.T) {
	req := decodeSweepRequest(t, gridRequest(60))
	id1, err := SweepID(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := SweepID(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("SweepID not deterministic: %q vs %q", id1, id2)
	}
	if !validSpecHash(id1) {
		t.Fatalf("SweepID %q is not a 64-hex digest", id1)
	}

	// "" and "tl" canonicalize to the same model, so the same sweep
	// keeps its identity however the client spells the default.
	blank := req
	blank.Model = ""
	idBlank, err := SweepID(blank, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idBlank != id1 {
		t.Fatalf("model \"\" and \"tl\" disagree: %q vs %q", idBlank, id1)
	}

	// Different axes are a different sweep.
	other := decodeSweepRequest(t, gridRequest(60))
	other.Axes = other.Axes[:1]
	idOther, err := SweepID(other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idOther == id1 {
		t.Fatal("distinct grids share a sweep id")
	}
}

func TestSweepManifestStatusAndResume(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, Queue: 64})
	req := gridRequest(61)

	hdr, rows, _ := sweepBody(t, ts.URL, req)
	id := hdr.Get(SweepIDHeader)
	if !validSpecHash(id) {
		t.Fatalf("%s = %q, want a sweep id", SweepIDHeader, id)
	}
	want, err := SweepID(decodeSweepRequest(t, req), nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != want {
		t.Fatalf("header id %q != computed id %q", id, want)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}

	// Status after a complete stream: all 8 done, none failed,
	// complete.
	status, shdr, body := getJSON(t, ts.URL+"/sweep/"+id)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if shdr.Get(SweepIDHeader) != id {
		t.Fatalf("status %s = %q", SweepIDHeader, shdr.Get(SweepIDHeader))
	}
	var st SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 8 || st.Variants != 8 || st.DoneCount != 8 || st.FailedCount != 0 || !st.Complete {
		t.Fatalf("status %+v, want 8/8 done complete", st)
	}

	// Resume past index 3: exactly indices 4..7, terminal summary.
	got, sum, done := resumeStream(t, ts.URL, id, 3)
	if !done || sum.Rows != 4 || len(got) != 4 {
		t.Fatalf("resume: done=%v summary=%+v rows=%d", done, sum, len(got))
	}
	for i, row := range got {
		if row.Index != 4+i {
			t.Fatalf("resume row %d has index %d, want %d", i, row.Index, 4+i)
		}
		if row.Cache != "hit" {
			t.Fatalf("resume row %d cache %q, want hit (already simulated)", i, row.Cache)
		}
	}

	// Duplicate offset: replay semantics make the same request
	// idempotent, byte-equal results included.
	again, sum2, done2 := resumeStream(t, ts.URL, id, 3)
	if !done2 || sum2 != sum || len(again) != len(got) {
		t.Fatalf("duplicate resume diverged: %+v vs %+v", sum2, sum)
	}
	for i := range got {
		if !bytes.Equal(got[i].Result, again[i].Result) {
			t.Fatalf("duplicate resume row %d not byte-identical", i)
		}
	}

	// Offset past the end: no rows, but still a well-formed terminal
	// summary (an empty replay is complete, not truncated).
	tail, sumTail, doneTail := resumeStream(t, ts.URL, id, 100)
	if !doneTail || len(tail) != 0 || sumTail.Rows != 0 {
		t.Fatalf("past-end resume: done=%v rows=%d summary=%+v", doneTail, len(tail), sumTail)
	}

	// after=-5 clamps to the full grid.
	full, _, _ := resumeStream(t, ts.URL, id, -5)
	if len(full) != 8 {
		t.Fatalf("clamped resume streamed %d rows, want 8", len(full))
	}
}

func TestSweepResumeRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	unknown := strings.Repeat("ab", 32)

	status, _, body := getJSON(t, ts.URL+"/sweep/"+unknown)
	if status != http.StatusNotFound || !strings.Contains(string(body), "re-POST") {
		t.Fatalf("unknown id status: %d %s", status, body)
	}
	status, _, body = getJSON(t, ts.URL+"/sweep/"+unknown+"/resume?after=0")
	if status != http.StatusNotFound {
		t.Fatalf("unknown id resume: %d %s", status, body)
	}
	status, _, body = getJSON(t, ts.URL+"/sweep/"+unknown+"/resume?after=three")
	if status != http.StatusBadRequest || !strings.Contains(string(body), "not an integer") {
		t.Fatalf("garbage offset: %d %s", status, body)
	}
}

func TestSweepCorruptManifestReenumeratesHonestly(t *testing.T) {
	// A manifest that fails validation must behave exactly like a
	// missing one: 404 from the id endpoints, and a re-POST of the
	// grid performs a full re-enumeration — the row count never
	// shrinks to whatever the corrupt bits claimed.
	srv, ts := newTestServer(t, Options{Workers: 4, Queue: 64})
	req := gridRequest(62)
	hdr, _, _ := sweepBody(t, ts.URL, req)
	id := hdr.Get(SweepIDHeader)

	// Overwrite the stored manifest with valid JSON of the wrong
	// shape (version 9, bogus totals).
	srv.persist(manifestKey(id), []byte(`{"version":9,"id":"`+id+`","total":-3}`))

	status, _, _ := getJSON(t, ts.URL+"/sweep/"+id)
	if status != http.StatusNotFound {
		t.Fatalf("corrupt manifest status %d, want 404", status)
	}
	status, _, _ = getJSON(t, ts.URL+"/sweep/"+id+"/resume?after=0")
	if status != http.StatusNotFound {
		t.Fatalf("corrupt manifest resume %d, want 404", status)
	}

	// Re-POST: the full 8-variant grid streams again (as cache hits)
	// and rebuilds the manifest.
	hdr2, rows, _ := sweepBody(t, ts.URL, req)
	if hdr2.Get(SweepIDHeader) != id {
		t.Fatalf("rebuilt sweep changed id: %q vs %q", hdr2.Get(SweepIDHeader), id)
	}
	if len(rows) != 8 {
		t.Fatalf("re-enumeration streamed %d rows, want the full 8", len(rows))
	}
	status, _, body := getJSON(t, ts.URL+"/sweep/"+id)
	if status != http.StatusOK {
		t.Fatalf("rebuilt manifest status %d: %s", status, body)
	}
	var st SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.DoneCount != 8 {
		t.Fatalf("rebuilt manifest %+v, want complete 8", st)
	}
}

func TestSweepManifestPutMergesProgress(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := decodeSweepRequest(t, gridRequest(63))
	id, err := SweepID(req, nil)
	if err != nil {
		t.Fatal(err)
	}

	put := func(m *SweepManifest, pathID string) (int, []byte) {
		t.Helper()
		buf, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		httpReq, err := http.NewRequest(http.MethodPut, ts.URL+"/sweep/"+pathID, bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(httpReq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	m := &SweepManifest{
		Version: 1, ID: id, Request: req, Total: 8,
		Done: sweep.NewBitset(8), Failed: sweep.NewBitset(8),
	}
	for i := 0; i < 3; i++ {
		m.Done.Set(i)
	}
	if status, body := put(m, id); status != http.StatusNoContent {
		t.Fatalf("PUT status %d: %s", status, body)
	}

	status, _, body := getJSON(t, ts.URL+"/sweep/"+id)
	if status != http.StatusOK {
		t.Fatalf("status after PUT %d: %s", status, body)
	}
	var st SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.DoneCount != 3 || st.Complete {
		t.Fatalf("after first PUT %+v, want 3 done incomplete", st)
	}

	// A second PUT with disjoint bits unions, never clobbers.
	m2 := &SweepManifest{
		Version: 1, ID: id, Request: req, Total: 8,
		Done: sweep.NewBitset(8), Failed: sweep.NewBitset(8),
	}
	m2.Done.Set(5)
	m2.Failed.Set(1) // failure of an already-done variant is outranked
	if status, body := put(m2, id); status != http.StatusNoContent {
		t.Fatalf("second PUT status %d: %s", status, body)
	}
	status, _, body = getJSON(t, ts.URL+"/sweep/"+id)
	if status != http.StatusOK {
		t.Fatalf("status after merge %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.DoneCount != 4 || st.FailedCount != 0 {
		t.Fatalf("after merge %+v, want union of 4 done, 0 failed", st)
	}

	// A manifest whose ID disagrees with the path is rejected.
	if status, body := put(m2, strings.Repeat("cd", 32)); status != http.StatusBadRequest ||
		!strings.Contains(string(body), "does not describe") {
		t.Fatalf("mismatched-id PUT: %d %s", status, body)
	}
}

func TestResultsWriteBackReplaysByteIdentically(t *testing.T) {
	// Simulate a variant on one server, then POST its envelope into a
	// second (empty) server via /results under the same
	// content-addressed key. The second server must serve a direct
	// /run of that spec as a hit with the exact same bytes — the
	// property the router's work-stealing write-back depends on.
	_, src := newTestServer(t, Options{Workers: 1})
	_, dst := newTestServer(t, Options{Workers: 1})

	runReq := map[string]any{"spec": testSpec(64), "model": "tl"}
	status, hdr, envelope := post(t, src.URL+"/run", runReq)
	if status != http.StatusOK {
		t.Fatalf("source run status %d: %s", status, envelope)
	}
	hash := hdr.Get("X-Spec-Hash")
	key, err := ResultKey("tl", hash)
	if err != nil {
		t.Fatal(err)
	}

	httpReq, err := http.NewRequest(http.MethodPost, dst.URL+"/results", bytes.NewReader(envelope))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(ResultKeyHeader, key)
	httpReq.Header.Set(StolenHeader, "0->1")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("write-back status %d: %s", resp.StatusCode, body)
	}

	status, hdr2, replay := post(t, dst.URL+"/run", runReq)
	if status != http.StatusOK {
		t.Fatalf("replay status %d: %s", status, replay)
	}
	if hdr2.Get("X-Cache") != "hit" {
		t.Fatalf("replay X-Cache %q, want hit (write-back should have seeded the store)", hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(envelope, replay) {
		t.Fatalf("write-back not byte-identical:\n%s\n%s", envelope, replay)
	}
}

func TestResultsProbeServesStoredBytes(t *testing.T) {
	// GET /results?key=... is the router's steal-avoidance probe: a
	// stored result answers 200 + X-Cache: hit with the exact stored
	// bytes, a cold key 404s, and a malformed key is rejected outright.
	_, ts := newTestServer(t, Options{Workers: 1})

	runReq := map[string]any{"spec": testSpec(65), "model": "rtl"}
	status, hdr, envelope := post(t, ts.URL+"/run", runReq)
	if status != http.StatusOK {
		t.Fatalf("run status %d: %s", status, envelope)
	}
	hash := hdr.Get("X-Spec-Hash")
	key, err := ResultKey("rtl", hash)
	if err != nil {
		t.Fatal(err)
	}

	status, phdr, probed := getJSON(t, ts.URL+"/results?key="+url.QueryEscape(key))
	if status != http.StatusOK {
		t.Fatalf("probe status %d: %s", status, probed)
	}
	if phdr.Get("X-Cache") != "hit" {
		t.Fatalf("probe X-Cache %q, want hit", phdr.Get("X-Cache"))
	}
	if !bytes.Equal(envelope, probed) {
		t.Fatalf("probe not byte-identical to the stored envelope:\n%s\n%s", envelope, probed)
	}

	// Same hash under the OTHER model: a valid key shape nothing has
	// computed — the probe must miss, not guess.
	coldKey, err := ResultKey("tl", hash)
	if err != nil {
		t.Fatal(err)
	}
	if status, _, body := getJSON(t, ts.URL+"/results?key="+url.QueryEscape(coldKey)); status != http.StatusNotFound {
		t.Fatalf("cold probe status %d, want 404: %s", status, body)
	}

	for _, bad := range []string{"", coldKey[:len(coldKey)-len(hash)] + "deadbeef", manifestKey(hash)} {
		if status, _, body := getJSON(t, ts.URL+"/results?key="+url.QueryEscape(bad)); status != http.StatusBadRequest {
			t.Fatalf("probe with key %q: status %d, want 400: %s", bad, status, body)
		}
	}
}

func TestResultsRejectsBadKeyAndBody(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	send := func(key string, body []byte) (int, []byte) {
		t.Helper()
		httpReq, err := http.NewRequest(http.MethodPost, ts.URL+"/results", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			httpReq.Header.Set(ResultKeyHeader, key)
		}
		resp, err := http.DefaultClient.Do(httpReq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	hash := strings.Repeat("ab", 32)
	key, err := ResultKey("tl", hash)
	if err != nil {
		t.Fatal(err)
	}
	if status, body := send("", []byte(`{}`)); status != http.StatusBadRequest {
		t.Fatalf("missing key: %d %s", status, body)
	}
	if status, body := send(key[:len(key)-len(hash)]+"nothex", []byte(`{}`)); status != http.StatusBadRequest {
		t.Fatalf("bad hash: %d %s", status, body)
	}
	if status, body := send("secret:"+hash, []byte(`{}`)); status != http.StatusBadRequest {
		t.Fatalf("foreign prefix: %d %s", status, body)
	}
	if status, body := send(key, []byte(`{broken`)); status != http.StatusBadRequest {
		t.Fatalf("non-JSON body: %d %s", status, body)
	}
	if status, body := send(key, nil); status != http.StatusBadRequest {
		t.Fatalf("empty body: %d %s", status, body)
	}
}

func TestStoredAnalyzeMatchesInlineAnalyze(t *testing.T) {
	// POST /sweep/{id}/analyze with a bare selector must produce the
	// byte-identical document to POST /sweep/analyze with the full
	// grid inlined — and, on a completed sweep, without simulating
	// anything.
	_, ts := newTestServer(t, Options{Workers: 4, Queue: 64})
	req := gridRequest(65)
	hdr, _, _ := sweepBody(t, ts.URL, req)
	id := hdr.Get(SweepIDHeader)

	inline := gridRequest(65)
	inline["metric"] = "cycles"
	inline["top_k"] = 3
	status, _, want := post(t, ts.URL+"/sweep/analyze", inline)
	if status != http.StatusOK {
		t.Fatalf("inline analyze status %d: %s", status, want)
	}

	sel := map[string]any{"metric": "cycles", "top_k": 3}
	status, ahdr, got := post(t, ts.URL+"/sweep/"+id+"/analyze", sel)
	if status != http.StatusOK {
		t.Fatalf("stored analyze status %d: %s", status, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("stored analyze differs from inline:\n%s\n%s", want, got)
	}
	if ahdr.Get(SweepIDHeader) != id {
		t.Fatalf("stored analyze %s = %q", SweepIDHeader, ahdr.Get(SweepIDHeader))
	}

	// Unknown id → 404; malformed selector → 400.
	status, _, body := post(t, ts.URL+"/sweep/"+strings.Repeat("ef", 32)+"/analyze", sel)
	if status != http.StatusNotFound {
		t.Fatalf("unknown stored analyze: %d %s", status, body)
	}
	status, _, body = post(t, ts.URL+"/sweep/"+id+"/analyze", map[string]any{"metric": "cycles", "axes": []string{"x"}, "bogus": 1})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "analysis selector") {
		t.Fatalf("bad selector: %d %s", status, body)
	}
}

func TestMemoryTierIsBoundedInBytes(t *testing.T) {
	// POST /results takes bodies of up to 1 MiB, so the entry cap alone
	// (default 1024) would let the memory tier grow to 1 GiB. It also has
	// a byte budget: what stays resident fits it. (The budget is
	// DefaultCacheBytes; the literal keeps the test meaningful against a
	// build that has no such bound.)
	const budget = 64 << 20
	_, ts := newTestServer(t, Options{Workers: 1})
	const bodyBytes = 1<<20 - 64
	body := append(append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), bodyBytes-len(`{"pad":""}`))...), `"}`...)
	const posted = budget/bodyBytes + 8
	for i := 0; i < posted; i++ {
		key, err := ResultKey("tl", fmt.Sprintf("%064x", i))
		if err != nil {
			t.Fatal(err)
		}
		httpReq, err := http.NewRequest(http.MethodPost, ts.URL+"/results", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		httpReq.Header.Set(ResultKeyHeader, key)
		resp, err := http.DefaultClient.Do(httpReq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("write-back %d: status %d", i, resp.StatusCode)
		}
	}
	var health Health
	status, _, raw := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK || json.Unmarshal(raw, &health) != nil {
		t.Fatalf("healthz: status %d: %s", status, raw)
	}
	if resident := int64(health.CacheEntries) * bodyBytes; resident > budget {
		t.Fatalf("%d bodies of %d bytes resident in memory (%d bytes) after %d write-backs, over the %d byte budget",
			health.CacheEntries, bodyBytes, resident, posted, budget)
	}
	if health.CacheEntries == 0 {
		t.Fatal("nothing resident: the budget evicted everything")
	}
}
