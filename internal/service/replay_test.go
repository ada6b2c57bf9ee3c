package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/sweep"
)

// rawSweepLines sends a request to a sweep stream endpoint and returns
// its data lines as sent, sorted by index, requiring a terminal row.
func rawSweepLines(t *testing.T, method, url string, body []byte) [][]byte {
	t.Helper()
	httpReq, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, msg)
	}
	var lines [][]byte
	_, done, err := DecodeSweepStream(resp.Body, func(line []byte) error {
		lines = append(lines, append([]byte(nil), line...))
		return nil
	})
	if err != nil || !done {
		t.Fatalf("%s %s: truncated stream (%v)", method, url, err)
	}
	return sortedByIndex(t, lines)
}

// sortedByIndex orders raw sweep lines by their index field.
func sortedByIndex(t *testing.T, lines [][]byte) [][]byte {
	t.Helper()
	index := make(map[*byte]int, len(lines))
	for _, line := range lines {
		var probe struct{ Index int }
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatal(err)
		}
		index[&line[0]] = probe.Index
	}
	sort.Slice(lines, func(i, j int) bool { return index[&lines[i][0]] < index[&lines[j][0]] })
	return lines
}

// sameLines requires two sorted line sets to be byte-identical.
func sameLines(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d differs:\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

// storedManifest reads GET /sweep/{id} as the manifest it carries.
func storedManifest(t *testing.T, base, id string) *SweepManifest {
	t.Helper()
	status, _, body := getJSON(t, base+"/sweep/"+id)
	if status != http.StatusOK {
		t.Fatalf("GET /sweep/%s: %d %s", id, status, body)
	}
	m, err := decodeManifest(body, id)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// putManifest merge-persists m through PUT /sweep/{id}.
func putManifest(t *testing.T, base string, m *SweepManifest) {
	t.Helper()
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPut, base+"/sweep/"+m.ID, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT /sweep/%s: %d %s", m.ID, resp.StatusCode, msg)
	}
}

// dropList removes the stored list of sweep id the way the merge rules
// allow it: a PUT carrying a list that differs drops both. What stays
// stored is a manifest of the shape that predates the list.
func dropList(t *testing.T, base, id string) {
	t.Helper()
	m := storedManifest(t, base, id)
	if m.Hashes == nil {
		return
	}
	m.Hashes[0] ^= 0xff
	putManifest(t, base, m)
	if storedManifest(t, base, id).Hashes != nil {
		t.Fatal("a PUT with a differing list left a list stored")
	}
}

// plantList stores hashes as the list of sweep id, which holds none.
func plantList(t *testing.T, base, id string, hashes []byte) {
	t.Helper()
	m := storedManifest(t, base, id)
	m.Hashes = hashes
	putManifest(t, base, m)
	if got := storedManifest(t, base, id).Hashes; !bytes.Equal(got, hashes) {
		t.Fatalf("planted list not stored (%d bytes stored)", len(got))
	}
}

// checkReplayMatchesWalk drives one tier at base through a sweep's
// cold stream and its replays, and holds every replay from the list to
// the same request answered with the list removed: /sweep, /resume at
// an offset and the stored analysis, byte for byte, rows sorted by
// index. It then tampers with one listed hash, at the sampled first
// position and at an unsampled one: the rows stay the walk's and the
// list is dropped. survivors is the grid's deduplicated variant count.
func checkReplayMatchesWalk(t *testing.T, base string, req SweepRequest, survivors int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	id, err := SweepID(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	selector := []byte(`{"metric":"cycles","objective":"min","top_k":3}`)
	analyze := func() []byte {
		t.Helper()
		status, doc := postRaw(t, base+"/sweep/"+id+"/analyze", selector, nil)
		if status != http.StatusOK {
			t.Fatalf("stored analyze: %d %s", status, doc)
		}
		return doc
	}
	resumeAt := 2

	rawSweepLines(t, http.MethodPost, base+"/sweep", body) // cold
	m := storedManifest(t, base, id)
	if len(m.Hashes) != sha256.Size*survivors || m.Variants != survivors {
		t.Fatalf("after the cold stream the manifest lists %d bytes for %d variants, want %d variants", len(m.Hashes), m.Variants, survivors)
	}
	list := m.Hashes

	// From the list.
	replay := rawSweepLines(t, http.MethodPost, base+"/sweep", body)
	resume := rawSweepLines(t, http.MethodGet, fmt.Sprintf("%s/sweep/%s/resume?after=%d", base, id, resumeAt), nil)
	doc := analyze()
	if !bytes.Equal(storedManifest(t, base, id).Hashes, list) {
		t.Fatal("replays changed the stored list")
	}

	// Without it: each request walks. A complete walk records the list
	// again, so it is dropped before each.
	dropList(t, base, id)
	walked := rawSweepLines(t, http.MethodPost, base+"/sweep", body)
	if !bytes.Equal(storedManifest(t, base, id).Hashes, list) {
		t.Fatal("a complete walk did not record the same list again")
	}
	dropList(t, base, id)
	walkedResume := rawSweepLines(t, http.MethodGet, fmt.Sprintf("%s/sweep/%s/resume?after=%d", base, id, resumeAt), nil)
	walkedDoc := analyze()
	if storedManifest(t, base, id).Hashes != nil {
		t.Fatal("a resume or an analysis recorded a list")
	}
	sameLines(t, "/sweep from the list", replay, walked)
	sameLines(t, "/resume from the list", resume, walkedResume)
	if !bytes.Equal(doc, walkedDoc) {
		t.Fatalf("stored analysis from the list differs:\n%s\n%s", doc, walkedDoc)
	}
	if len(walkedResume) == 0 || len(walkedResume) >= len(walked) {
		t.Fatalf("resume after %d streamed %d of %d rows", resumeAt, len(walkedResume), len(walked))
	}

	// A wrong hash at a sampled position (the first) and at an
	// unsampled one (the second) is caught: rows stay right and the
	// list is dropped, on a stream and on an analysis.
	for _, pos := range []int{0, 1} {
		for _, what := range []string{"/sweep", "analyze"} {
			bad := bytes.Clone(list)
			bad[sha256.Size*pos] ^= 0xff
			plantList(t, base, id, bad)
			if what == "/sweep" {
				sameLines(t, fmt.Sprintf("/sweep on a list wrong at %d", pos), rawSweepLines(t, http.MethodPost, base+"/sweep", body), walked)
			} else if got := analyze(); !bytes.Equal(got, walkedDoc) {
				t.Fatalf("analysis on a list wrong at %d differs:\n%s\n%s", pos, got, walkedDoc)
			}
			if storedManifest(t, base, id).Hashes != nil {
				t.Fatalf("%s kept a list wrong at %d", what, pos)
			}
		}
	}
}

// dedupGrid has a write-buffer depth listed twice: 8 grid points, 6
// distinct variants.
func dedupGrid(salt int) SweepRequest {
	base := testSpec(salt)
	return SweepRequest{Base: &base, Name: "replay/dedup", Model: "tl", Axes: []SweepAxis{
		{Param: sweep.ParamWriteBufferDepth, Values: []any{0.0, 2.0, 2.0, 4.0}},
		{Param: sweep.ParamBIEnabled, Values: []any{true, false}},
	}}
}

func TestWorkerReplaysFromTheManifestList(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	checkReplayMatchesWalk(t, ts.URL, dedupGrid(80), 6)
}

func TestSweepWithAFailedPointRecordsNoList(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	base := testSpec(81)
	req := SweepRequest{Base: &base, Name: "replay/failing", Model: "tl", Axes: []SweepAxis{
		{Param: sweep.ParamCount, Values: []any{20.0, 20000.0, 30.0}},
	}}
	hdr, rows, summary := sweepBody(t, ts.URL, req)
	if summary.Errors == 0 || len(rows) != 3 {
		t.Fatalf("%d rows, %d errors: the grid was meant to fail a point", len(rows), summary.Errors)
	}
	if m := storedManifest(t, ts.URL, hdr.Get(SweepIDHeader)); m.Hashes != nil || m.Variants != 2 {
		t.Fatalf("a sweep with a failed point stored %d list bytes (variants %d)", len(m.Hashes), m.Variants)
	}
}

// TestManifestListMergeAndAcceptRules holds PUT /sweep/{id} to the
// list's rules: a save without a list keeps the stored one, a differing
// list drops both, and a list that does not describe exactly a
// complete, failure-free Done set is never served.
func TestManifestListMergeAndAcceptRules(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := decodeSweepRequest(t, gridRequest(82))
	id, err := SweepID(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	list := bytes.Repeat([]byte{7}, 3*sha256.Size)
	manifest := func(hashes []byte, done ...int) *SweepManifest {
		m := &SweepManifest{Version: 1, ID: id, Request: req, Total: 8, Variants: 3,
			Done: sweep.NewBitset(8), Failed: sweep.NewBitset(8), Hashes: hashes}
		for _, i := range done {
			m.Done.Set(i)
		}
		return m
	}
	putManifest(t, ts.URL, manifest(list, 0))
	if got := storedManifest(t, ts.URL, id).Hashes; got != nil {
		t.Fatal("a PUT whose list does not describe its own Done set stored it")
	}
	putManifest(t, ts.URL, manifest(list, 0, 1, 2))
	if got := storedManifest(t, ts.URL, id).Hashes; !bytes.Equal(got, list) {
		t.Fatalf("a list onto a manifest without one: stored %x", got)
	}
	putManifest(t, ts.URL, manifest(nil, 1))
	if got := storedManifest(t, ts.URL, id).Hashes; !bytes.Equal(got, list) {
		t.Fatal("a save without a list dropped the stored one")
	}
	putManifest(t, ts.URL, manifest(list, 2))
	if got := storedManifest(t, ts.URL, id).Hashes; !bytes.Equal(got, list) {
		t.Fatal("the same list again dropped it")
	}
	other := bytes.Clone(list)
	other[40] ^= 1
	putManifest(t, ts.URL, manifest(other, 0, 1, 2))
	if got := storedManifest(t, ts.URL, id).Hashes; got != nil {
		t.Fatal("two lists that differ were not both dropped")
	}

	// Accept's rules, each on a manifest that is otherwise complete.
	for name, bend := range map[string]func(m *SweepManifest){
		"length":           func(m *SweepManifest) { m.Hashes = m.Hashes[:len(m.Hashes)-1] },
		"variants vs done": func(m *SweepManifest) { m.Done.Set(5) },
		"variants > total": func(m *SweepManifest) { m.Total, m.Done, m.Failed = 2, sweep.NewBitset(2), sweep.NewBitset(2) },
		"failed":           func(m *SweepManifest) { m.Failed.Set(6) },
		"no variants":      func(m *SweepManifest) { m.Variants, m.Hashes = 0, m.Hashes[:0] },
	} {
		m := manifest(bytes.Clone(list), 0, 1, 2)
		if !m.Accept(id) || m.Hashes == nil {
			t.Fatal("a complete manifest lost its list")
		}
		bend(m)
		if !m.Accept(id) || m.Hashes != nil {
			t.Fatalf("%s: Accept kept the list", name)
		}
	}
}

func TestRecordHashesStaysUnderTheBodyCap(t *testing.T) {
	req := decodeSweepRequest(t, gridRequest(83))
	for _, tc := range []struct {
		variants int
		listed   bool
	}{{8, true}, {24_000, true}, {25_000, false}} {
		m := &SweepManifest{Version: 1, ID: "x", Request: req, Total: tc.variants, Variants: tc.variants,
			Done: sweep.NewBitset(tc.variants), Failed: sweep.NewBitset(tc.variants)}
		m.recordHashes(make([]byte, sha256.Size*tc.variants))
		if (m.Hashes != nil) != tc.listed {
			t.Fatalf("%d variants: listed %v, want %v", tc.variants, m.Hashes != nil, tc.listed)
		}
		if body, _ := json.Marshal(m); len(body) >= MaxBodyBytes {
			t.Fatalf("%d variants: manifest body %d bytes, cap %d", tc.variants, len(body), MaxBodyBytes)
		}
	}
}

// TestEngineReplayHandsOutUnbuiltVariants checks what the tiers see of
// a replay: chunks of variants named by their coordinates, no spec
// built, with the listed hashes; and that a grid whose list could not
// fit a manifest body replays by walking.
func TestEngineReplayHandsOutUnbuiltVariants(t *testing.T) {
	var mu sync.Mutex
	built := 0
	tier := &fakeTier{conc: []int{2}}
	tier.resolve = func(ctx context.Context, v sweep.Variant, lane, from int) (SweepLine, bool) {
		mu.Lock()
		if v.Canonical != nil {
			built++
		}
		mu.Unlock()
		return instantLine(v, lane, from), true
	}
	engine := newFakeEngine(tier)
	req := cleanGrid(84)
	stream := func() int {
		mu.Lock()
		built = 0
		mu.Unlock()
		rec := httptest.NewRecorder()
		postSweep(context.Background(), engine, rec, req)
		if lines, _, done := engineStream(t, rec.Body); !done || len(lines) != 8 {
			t.Fatalf("%d lines, done %v", len(lines), done)
		}
		mu.Lock()
		defer mu.Unlock()
		return built
	}
	if n := stream(); n != 8 {
		t.Fatalf("the cold stream handed out %d built variants, want 8", n)
	}
	if tier.stored.Hashes == nil {
		t.Fatal("the cold stream recorded no list")
	}
	// The fake tier stores what it is given, with no merge: the replay's
	// save, which omits the list, leaves none behind.
	if n := stream(); n != 0 {
		t.Fatalf("the replay handed out %d built variants, want none", n)
	}
	if tier.stored.Hashes != nil {
		t.Fatal("the replay's save carried the list")
	}

	// Over the body cap: 25,000 variants list nothing and walk again.
	base := testSpec(85)
	big := SweepRequest{Base: &base, Name: "replay/big", Model: "tl", Axes: []SweepAxis{
		{Param: sweep.ParamMaxCycles, Values: intsAny(25_000, 1000)},
	}}
	rec := httptest.NewRecorder()
	postSweep(context.Background(), engine, rec, big)
	if _, summary, done := engineStream(t, rec.Body); !done || summary.Rows != 25_000 || summary.Errors != 0 {
		t.Fatalf("big grid: %+v done %v", summary, done)
	}
	if tier.stored.Variants != 25_000 || tier.stored.Hashes != nil {
		t.Fatalf("big grid stored %d list bytes for %d variants", len(tier.stored.Hashes), tier.stored.Variants)
	}
}

// referenceDecodeManifest is decodeManifest before it cut the list out
// of the body: encoding/json over all of it.
func referenceDecodeManifest(body []byte, id string) (*SweepManifest, error) {
	m := new(SweepManifest)
	if err := json.Unmarshal(body, m); err != nil {
		return nil, err
	}
	if !m.Accept(id) {
		return nil, fmt.Errorf("manifest does not describe sweep %q", id)
	}
	return m, nil
}

// FuzzDecodeManifest holds decodeManifest, whose list skips
// encoding/json, to encoding/json over the whole body: the same
// manifest, or an error for both.
func FuzzDecodeManifest(f *testing.F) {
	req := SweepRequest{Scenario: "seq/write-heavy", Name: `a "hashes":"AAAA" name`, Axes: []SweepAxis{{Param: "count", Values: []any{1.0, 2.0}}}}
	m := &SweepManifest{Version: 1, ID: "x", Request: req, Total: 2, Variants: 2,
		Done: sweep.NewBitset(2), Failed: sweep.NewBitset(2), Hashes: bytes.Repeat([]byte{0xfb, 0xef}, sha256.Size)}
	m.Done.Set(0)
	m.Done.Set(1)
	manifest, _ := json.Marshal(m)
	status, _ := json.Marshal(m.Status())
	f.Add(manifest)
	f.Add(status)
	for _, edit := range [][2]string{
		{`"hashes"`, `"Hashes"`},
		{`"hashes"`, `"hash\u0065s"`},
		{`"hashes":"`, `"hashes" : "`},
		{`"hashes":"`, `"hashes":"\r`},
		{`{"version"`, `{"hashes":"AAAA","version"`},
		{`"request":{`, `"request":{"hashes":"AAAA",`},
		{`"total":2`, `"total":2,"hashes":null`},
		{`=="`, `="`},
	} {
		f.Add(bytes.Replace(manifest, []byte(edit[0]), []byte(edit[1]), 1))
	}
	f.Add(append(bytes.Clone(manifest[:len(manifest)-1]), `,"hashes":""}`...))
	f.Add([]byte(`{"hashes":"AAAA"}`))
	f.Add([]byte(`["hashes":"AAAA"]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gerr := decodeManifest(body, "x")
		want, werr := referenceDecodeManifest(body, "x")
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decodeManifest error %v, encoding/json error %v", gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeManifest diverges:\n got %+v\nwant %+v", got, want)
		}
	})
}
