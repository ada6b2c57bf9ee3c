package shard

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
	"testing"

	"repro/internal/service"
	"repro/internal/sweep"
)

// routerLines sends a request to a router sweep stream endpoint and
// returns its data lines as sent, sorted by index.
func routerLines(t *testing.T, method, url string, body []byte) [][]byte {
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
		t.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, msg)
	}
	byIndex := map[int][]byte{}
	last := -1
	_, done, err := service.DecodeSweepStream(resp.Body, func(line []byte) error {
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			return err
		}
		byIndex[row.Index] = append([]byte(nil), line...)
		last = max(last, row.Index)
		return nil
	})
	if err != nil || !done {
		t.Fatalf("%s %s: truncated stream (%v)", method, url, err)
	}
	var lines [][]byte
	for i := 0; i <= last; i++ {
		if line, ok := byIndex[i]; ok {
			lines = append(lines, line)
		}
	}
	return lines
}

// sameRows requires two sorted line sets to be byte-identical, or, with
// anyCache, identical in every field but the cache disposition.
func sameRows(t *testing.T, what string, got, want [][]byte, anyCache bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if bytes.Equal(got[i], want[i]) {
			continue
		}
		var g, w Row
		if anyCache && json.Unmarshal(got[i], &g) == nil && json.Unmarshal(want[i], &w) == nil {
			g.Cache, w.Cache = "", ""
			if reflect.DeepEqual(g, w) {
				continue
			}
		}
		t.Fatalf("%s: row %d differs:\n got %s\nwant %s", what, i, got[i], want[i])
	}
}

func TestRouterReplaysFromTheManifestList(t *testing.T) {
	var backends []*service.Client
	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := newBackend(t, service.Options{Workers: 2})
		urls = append(urls, ts.URL)
		backends = append(backends, &service.Client{Base: ts.URL})
	}
	rt, err := New(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	base := testSpec(90)
	req := service.SweepRequest{Base: &base, Name: "replay/router", Model: "tl", Axes: []service.SweepAxis{
		{Param: sweep.ParamWriteBufferDepth, Values: []any{0.0, 2.0, 2.0, 4.0}},
		{Param: sweep.ParamBIEnabled, Values: []any{true, false}},
	}}
	const survivors = 6 // depth 2 is listed twice
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	id, err := service.SweepID(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// stored is the manifest the router reads — the copy on the first
	// shard of the id's rank order that holds one — and where it is.
	stored := func() (*service.SweepManifest, *service.Client) {
		t.Helper()
		for _, cl := range backends {
			if m, ok, err := cl.FetchManifest(ctx, id); err != nil {
				t.Fatal(err)
			} else if ok {
				return m, cl
			}
		}
		t.Fatal("no shard holds the manifest")
		return nil, nil
	}
	put := func(cl *service.Client, m *service.SweepManifest) {
		t.Helper()
		if err := cl.PutManifest(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	// dropList stores a differing list over the stored one: the merge
	// drops both, and what is left is a manifest of the shape that
	// predates the list.
	dropList := func() {
		t.Helper()
		m, cl := stored()
		if m.Hashes == nil {
			return
		}
		m.Hashes[0] ^= 0xff
		put(cl, m)
		if m, _ := stored(); m.Hashes != nil {
			t.Fatal("a differing list did not drop the stored one")
		}
	}
	selector := []byte(`{"metric":"cycles","objective":"min","top_k":3}`)
	analyze := func() []byte {
		t.Helper()
		resp, err := http.Post(front.URL+"/sweep/"+id+"/analyze", "application/json", bytes.NewReader(selector))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		doc, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stored analyze: %d %s", resp.StatusCode, doc)
		}
		return doc
	}
	resumeURL := fmt.Sprintf("%s/sweep/%s/resume?after=2", front.URL, id)

	routerLines(t, http.MethodPost, front.URL+"/sweep", body) // cold
	m, _ := stored()
	if len(m.Hashes) != sha256.Size*survivors {
		t.Fatalf("the cold stream listed %d hash bytes, want %d", len(m.Hashes), sha256.Size*survivors)
	}
	list := m.Hashes

	replay := routerLines(t, http.MethodPost, front.URL+"/sweep", body)
	resume := routerLines(t, http.MethodGet, resumeURL, nil)
	doc := analyze()
	if m, _ := stored(); !bytes.Equal(m.Hashes, list) {
		t.Fatal("replays changed the stored list")
	}

	dropList()
	walked := routerLines(t, http.MethodPost, front.URL+"/sweep", body)
	if m, _ := stored(); !bytes.Equal(m.Hashes, list) {
		t.Fatal("a complete walk did not record the same list again")
	}
	dropList()
	walkedResume := routerLines(t, http.MethodGet, resumeURL, nil)
	walkedDoc := analyze()
	sameRows(t, "/sweep from the list", replay, walked, false)
	sameRows(t, "/resume from the list", resume, walkedResume, false)
	if !bytes.Equal(doc, walkedDoc) {
		t.Fatalf("stored analysis from the list differs:\n%s\n%s", doc, walkedDoc)
	}
	if len(walked) != survivors || len(walkedResume) == 0 || len(walkedResume) >= survivors {
		t.Fatalf("%d rows, %d resumed", len(walked), len(walkedResume))
	}

	// A wrong hash at the sampled first position and at an unsampled
	// one: the rows stay right — the wrong one misses the router cache,
	// is rebuilt and served by its own owner — and the list is dropped.
	for _, pos := range []int{0, 1} {
		bad := bytes.Clone(list)
		bad[sha256.Size*pos] ^= 0xff
		m, cl := stored()
		m.Hashes = bad
		put(cl, m)
		if m, _ := stored(); !bytes.Equal(m.Hashes, bad) {
			t.Fatalf("wrong list at %d not planted", pos)
		}
		sameRows(t, fmt.Sprintf("/sweep on a list wrong at %d", pos), routerLines(t, http.MethodPost, front.URL+"/sweep", body), walked, true)
		if m, _ := stored(); m.Hashes != nil {
			t.Fatalf("a list wrong at %d was kept", pos)
		}
	}
}
