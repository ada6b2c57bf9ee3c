package shard

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/store"
)

func cacheTestKey(i int) string {
	return "run:TL:" + strings.Repeat(fmt.Sprintf("%02x", i%256), 32)
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

func TestResultCacheEvictsLRUByBytes(t *testing.T) {
	// Budget that holds roughly 3 small entries; inserting more must
	// evict from the cold end, never the hot one.
	body := bytes.Repeat([]byte(`x`), 100)
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
	rt.cacheFill(cacheTestKey(8), bytes.Repeat([]byte(`y`), 1000))
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
