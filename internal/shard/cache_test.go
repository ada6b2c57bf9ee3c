package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/service"
	"repro/internal/store"
)

func cacheTestKey(i int) string {
	key, err := service.ResultKey("tl", strings.Repeat(fmt.Sprintf("%02x", i%256), 32))
	if err != nil {
		panic(err)
	}
	return key
}

// cacheRouter builds a router whose only live part is its result cache,
// bounded to maxBytes of envelopes; the tests drive the cache through
// the cacheLookup/cacheFill pair every serving path uses.
func cacheRouter(t *testing.T, maxBytes int64) *Router {
	t.Helper()
	rt, err := New(Options{Backends: []string{"http://127.0.0.1:1"}, SweepConcurrency: 1, RouterCacheBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestResultCacheRoundTrip(t *testing.T) {
	rt := cacheRouter(t, 1<<20)
	key := cacheTestKey(1)
	body := []byte(`{"cycles":123}`)
	if _, ok := rt.cacheLookup(key); ok {
		t.Fatal("empty cache claimed a hit")
	}
	rt.cacheFill(key, body)
	got, ok := rt.cacheLookup(key)
	if !ok {
		t.Fatal("miss after fill")
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("cached body %q, want %q", got, body)
	}
	if rt.cache.Len() != 1 {
		t.Fatalf("len %d, want 1", rt.cache.Len())
	}
	if hits, misses := rt.cacheHits.Value(), rt.cacheMisses.Value(); hits != 1 || misses != 1 {
		t.Fatalf("counted %v hits / %v misses, want 1 / 1", hits, misses)
	}
}

// jsonBody is a JSON document of exactly n >= 2 bytes in the form the
// router cache admits: a string of x's.
func jsonBody(n int) []byte {
	return append(append([]byte{'"'}, bytes.Repeat([]byte(`x`), n-2)...), '"')
}

func TestResultCacheEvictsLRUByBytes(t *testing.T) {
	// Budget that holds roughly 3 small entries; inserting more must
	// evict from the cold end, never the hot one.
	body := jsonBody(100)
	env := store.EncodeEnvelope(cacheTestKey(0), body)
	rt := cacheRouter(t, int64(3*len(env)))
	for i := 0; i < 5; i++ {
		rt.cacheFill(cacheTestKey(i), body)
	}
	if rt.cache.Bytes() > int64(3*len(env)) {
		t.Fatalf("cache holds %d bytes over the %d budget", rt.cache.Bytes(), 3*len(env))
	}
	if _, ok := rt.cacheLookup(cacheTestKey(0)); ok {
		t.Fatal("oldest entry survived past the byte budget")
	}
	if _, ok := rt.cacheLookup(cacheTestKey(4)); !ok {
		t.Fatal("newest entry evicted")
	}
	// Touch an old survivor, overflow again: the touched entry stays.
	if _, ok := rt.cacheLookup(cacheTestKey(2)); !ok {
		t.Fatal("expected entry 2 resident")
	}
	rt.cacheFill(cacheTestKey(5), body)
	rt.cacheFill(cacheTestKey(6), body)
	if _, ok := rt.cacheLookup(cacheTestKey(2)); !ok {
		t.Fatal("recently-touched entry evicted before colder ones")
	}
}

func TestResultCacheUpdateInPlace(t *testing.T) {
	rt := cacheRouter(t, 1<<20)
	key := cacheTestKey(7)
	rt.cacheFill(key, []byte(`{"v":1}`))
	rt.cacheFill(key, []byte(`{"v":2,"bigger":true}`))
	if rt.cache.Len() != 1 {
		t.Fatalf("len %d after double fill, want 1", rt.cache.Len())
	}
	got, ok := rt.cacheLookup(key)
	if !ok || !bytes.Equal(got, []byte(`{"v":2,"bigger":true}`)) {
		t.Fatalf("got %q ok=%v", got, ok)
	}
	want := int64(len(store.EncodeEnvelope(key, []byte(`{"v":2,"bigger":true}`))))
	if rt.cache.Bytes() != want {
		t.Fatalf("size %d after update, want %d", rt.cache.Bytes(), want)
	}
}

func TestResultCacheOversizedBodyNotCached(t *testing.T) {
	rt := cacheRouter(t, 64)
	rt.cacheFill(cacheTestKey(8), jsonBody(1000))
	if rt.cache.Len() != 0 || rt.cache.Bytes() != 0 {
		t.Fatalf("oversized body cached: len=%d bytes=%d", rt.cache.Len(), rt.cache.Bytes())
	}
}

func TestResultCacheCorruptEntryDegradesToMiss(t *testing.T) {
	rt := cacheRouter(t, 1<<20)
	key := cacheTestKey(9)
	rt.cacheFill(key, []byte(`{"v":1}`))
	// Flip a payload byte behind the cache's back (the cache shares its
	// bodies, it does not copy them); the envelope checksum must catch
	// it and the entry must be dropped, not served.
	env, _ := rt.cache.Get(key)
	env[len(env)-2] ^= 0xff
	if _, ok := rt.cacheLookup(key); ok {
		t.Fatal("corrupt envelope served as a hit")
	}
	if rt.cache.Len() != 0 {
		t.Fatal("corrupt entry not dropped")
	}
}

func TestResultCacheRelaysButDoesNotCacheNonVerbatimBodies(t *testing.T) {
	// A backend body json.Marshal would not write as it is — here, with
	// insignificant whitespace — reaches the client byte for byte, but
	// the router cache only holds bodies a sweep row may copy unchecked,
	// so the repeat goes to the backend again.
	body := []byte(`{ "name": "fake", "cycles": 1 }`)
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.Health{OK: true, Workers: 1})
	})
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		w.Write(body)
	})
	backend := httptest.NewServer(mux)
	t.Cleanup(backend.Close)
	rt, err := New(Options{Backends: []string{backend.URL}, RouterCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	req := map[string]any{"spec": testSpec(12), "model": "tl"}
	for i := 1; i <= 2; i++ {
		status, hdr, got := post(t, front.URL+"/run", req)
		if status != http.StatusOK || !bytes.Equal(got, body) {
			t.Fatalf("request %d: status %d body %q, want the backend's %q", i, status, got, body)
		}
		if c := hdr.Get("X-Cache"); c != "miss" {
			t.Fatalf("request %d: X-Cache %q, want the backend's miss", i, c)
		}
		if n := calls.Load(); n != int64(i) {
			t.Fatalf("request %d reached the backend %d times in all, want %d", i, n, i)
		}
	}
	if rt.cache.Len() != 0 {
		t.Fatalf("router cache holds %d entries, want none", rt.cache.Len())
	}
}

func TestRouterHitSweepRowsAreJSONMarshalBytes(t *testing.T) {
	// A warm row's result is copied from the router cache without a
	// second Verbatim pass; the line must still be exactly what
	// json.Marshal writes for the row, and carry the cold stream's bytes.
	c := newResizeCluster(t, 2, false, 64<<20)
	req, variants := countGrid(t, 540, 40, "tl")
	cold := rawSweepLines(t, c.front, req)
	warm := rawSweepLines(t, c.front, req)
	if len(cold) != len(variants) || len(warm) != len(variants) {
		t.Fatalf("%d cold and %d warm rows, want %d each", len(cold), len(warm), len(variants))
	}
	coldResult := map[int][]byte{}
	for _, line := range cold {
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		coldResult[row.Index] = row.Result
	}
	for _, line := range warm {
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		if row.Cache != routerHit {
			t.Fatalf("warm row %d cache %q, want %q", row.Index, row.Cache, routerHit)
		}
		if !bytes.Equal(row.Result, coldResult[row.Index]) {
			t.Fatalf("warm row %d result differs from the cold stream's", row.Index)
		}
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Fatalf("warm row %d\n got %s\nwant %s", row.Index, line, want)
		}
	}
}

// rawSweepLines posts req to url's /sweep and returns its data lines as
// sent, failing unless the stream ends in a clean summary.
func rawSweepLines(t *testing.T, url string, req any) [][]byte {
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
	var lines [][]byte
	summary, done, err := service.DecodeSweepStream(resp.Body, func(line []byte) error {
		lines = append(lines, bytes.Clone(line))
		return nil
	})
	if err != nil || !done || summary.Errors != 0 || summary.Rows != len(lines) {
		t.Fatalf("sweep stream: err=%v done=%v summary=%+v rows=%d", err, done, summary, len(lines))
	}
	return lines
}
