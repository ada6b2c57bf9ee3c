package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/service"
)

// resizeCluster is a router over n store-backed backends with direct
// access to both tiers — what the resize and drain tests drive.
type resizeCluster struct {
	rt       *Router
	front    string
	backends []*httptest.Server
	// runCalls counts /run, /compare and /batch requests reaching backend
	// i — the ground truth for "zero backend round trips".
	runCalls []*atomic.Int64
}

// newResizeCluster builds n backends (each with its own store dir when
// withStore) and a router with the given result-cache budget.
func newResizeCluster(t *testing.T, n int, withStore bool, cacheBytes int64) *resizeCluster {
	t.Helper()
	c := &resizeCluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		opt := service.Options{Workers: 2}
		if withStore {
			opt.StoreDir = filepath.Join(t.TempDir(), "shard-"+strconv.Itoa(i))
		}
		srv, err := service.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		calls := &atomic.Int64{}
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" || r.URL.Path == "/compare" || r.URL.Path == "/batch" {
				calls.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		c.backends = append(c.backends, ts)
		c.runCalls = append(c.runCalls, calls)
		urls[i] = ts.URL
	}
	rt, err := New(Options{Backends: urls, RouterCacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	c.rt = rt
	c.front = front.URL
	return c
}

func (c *resizeCluster) totalRunCalls() int64 {
	var n int64
	for _, calls := range c.runCalls {
		n += calls.Load()
	}
	return n
}

func TestRouterCacheServesRepeatsWithZeroBackendRoundTrips(t *testing.T) {
	c := newResizeCluster(t, 2, false, 64<<20)
	sp := testSpec(400)
	hash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}

	status, hdr, first := post(t, c.front+"/run", map[string]any{"spec": sp, "model": "tl"})
	if status != http.StatusOK {
		t.Fatalf("first run: %d %s", status, first)
	}
	if hdr.Get("X-Cache") == routerHit {
		t.Fatal("cold request claimed a router hit")
	}
	if n := c.totalRunCalls(); n != 1 {
		t.Fatalf("cold request cost %d backend calls, want 1", n)
	}

	status, hdr, second := post(t, c.front+"/run", map[string]any{"spec": sp, "model": "tl"})
	if status != http.StatusOK {
		t.Fatalf("repeat run: %d %s", status, second)
	}
	if hdr.Get("X-Cache") != routerHit {
		t.Fatalf("repeat X-Cache %q, want %q", hdr.Get("X-Cache"), routerHit)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("router-cached body differs from the backend's")
	}
	if hdr.Get("X-Spec-Hash") != hash {
		t.Fatalf("router hit X-Spec-Hash %q, want %q", hdr.Get("X-Spec-Hash"), hash)
	}
	wantShard := strconv.Itoa(OwnerID(hash, c.rt.view().ids))
	if hdr.Get("X-Shard") != wantShard {
		t.Fatalf("router hit X-Shard %q, want owner %q", hdr.Get("X-Shard"), wantShard)
	}
	// THE acceptance claim: the repeat reached no backend.
	if n := c.totalRunCalls(); n != 1 {
		t.Fatalf("repeat cost backend calls: %d total, want still 1", n)
	}

	// A different model of the same spec is a different result key —
	// it must NOT be served from the tl entry.
	status, hdr, _ = post(t, c.front+"/run", map[string]any{"spec": sp, "model": "rtl"})
	if status != http.StatusOK || hdr.Get("X-Cache") == routerHit {
		t.Fatalf("rtl run status=%d cache=%q; distinct keys must miss", status, hdr.Get("X-Cache"))
	}
}

func TestRouterCacheServesSweepVariants(t *testing.T) {
	c := newResizeCluster(t, 2, false, 64<<20)
	req := gridRequest(410)
	_, rows, summary, done := readSweep(t, c.front, req)
	if !done || summary.Errors != 0 {
		t.Fatalf("cold sweep: done=%v errors=%d", done, summary.Errors)
	}
	cold := c.totalRunCalls()
	if cold == 0 {
		t.Fatal("cold sweep reached no backend")
	}
	_, rows, summary, done = readSweep(t, c.front, req)
	if !done || summary.Errors != 0 {
		t.Fatalf("warm sweep: done=%v errors=%d", done, summary.Errors)
	}
	for _, row := range rows {
		if row.Cache != routerHit {
			t.Fatalf("warm row %s cache %q, want %q", row.Name, row.Cache, routerHit)
		}
	}
	if n := c.totalRunCalls(); n != cold {
		t.Fatalf("warm sweep cost %d extra backend calls", n-cold)
	}
}

func TestAdminGrowAdmitsNewBackendsAtNextEpoch(t *testing.T) {
	c := newResizeCluster(t, 2, false, 0)
	if top := c.rt.Topology(); top.Epoch != 1 || len(top.Members) != 2 {
		t.Fatalf("boot topology %+v", top)
	}

	// A third backend, admitted live.
	srv, err := service.New(service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	status, _, body := post(t, c.front+"/admin/shards", map[string]any{"backends": []string{ts.URL}})
	if status != http.StatusOK {
		t.Fatalf("grow: %d %s", status, body)
	}
	var top Topology
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	if top.Epoch != 2 || len(top.Members) != 3 || top.Members[2].ID != 2 || top.Members[2].Addr != ts.URL {
		t.Fatalf("post-grow topology %+v", top)
	}

	// The healthz schema carries the same epoch and membership.
	resp, err := http.Get(c.front + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h ClusterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Epoch != 2 || len(h.Topology) != 3 || len(h.Shards) != 3 || !h.OK {
		t.Fatalf("healthz after grow: epoch=%d topology=%d shards=%d ok=%v", h.Epoch, len(h.Topology), len(h.Shards), h.OK)
	}
	for i, sh := range h.Shards {
		if sh.ID != i {
			t.Fatalf("healthz shard %d carries ID %d", i, sh.ID)
		}
	}

	// The new member serves its rendezvous slice: some spec must now be
	// owned by (and served from) shard 2.
	served := false
	for salt := 0; salt < 40 && !served; salt++ {
		sp := testSpec(500 + salt)
		hash, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if OwnerID(hash, top.IDs()) != 2 {
			continue
		}
		status, hdr, body := post(t, c.front+"/run", map[string]any{"spec": sp, "model": "tl"})
		if status != http.StatusOK {
			t.Fatalf("run on new shard: %d %s", status, body)
		}
		if hdr.Get("X-Shard") != "2" || hdr.Get("X-Failover") != "" {
			t.Fatalf("new-shard spec served by %q (failover %q)", hdr.Get("X-Shard"), hdr.Get("X-Failover"))
		}
		served = true
	}
	if !served {
		t.Fatal("no test spec landed on the new shard — degenerate salt range")
	}

	// Malformed grows are rejected without touching the topology.
	for _, bad := range []map[string]any{
		{},
		{"count": 1, "backends": []string{ts.URL}},
		{"count": 1}, // unsupervised cluster
		{"backends": []string{"localhost:9"}},
	} {
		if status, _, body := post(t, c.front+"/admin/shards", bad); status != http.StatusBadRequest {
			t.Fatalf("grow %v: status %d, want 400: %s", bad, status, body)
		}
	}
	if top := c.rt.Topology(); top.Epoch != 2 {
		t.Fatalf("rejected grows moved the epoch to %d", top.Epoch)
	}
}

// drainedKeys fetches every key a backend holds, via the enumeration
// endpoint the drain itself uses.
func drainedKeys(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/results?prefix=")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enumerate status %d", resp.StatusCode)
	}
	var out struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Keys
}

func TestDrainMigratesEveryEnvelopeByteIdentically(t *testing.T) {
	c := newResizeCluster(t, 3, true, 0)

	// Populate every store: one sweep spreads variants (and a manifest)
	// across the cluster.
	_, rows, summary, done := readSweep(t, c.front, gridRequest(600))
	if !done || summary.Errors != 0 {
		t.Fatalf("seed sweep: done=%v errors=%d", done, summary.Errors)
	}

	// Record the retiring shard's full inventory, body by body.
	const drained = 1
	keys := drainedKeys(t, c.backends[drained].URL)
	if len(keys) == 0 {
		t.Fatal("degenerate test: drained shard holds nothing")
	}
	held := map[string][]byte{}
	for _, key := range keys {
		resp, err := http.Get(c.backends[drained].URL + "/results?key=" + url.QueryEscape(key))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(t, resp)
		if resp.StatusCode == http.StatusOK {
			held[key] = body
		}
	}

	status, _, body := post(t, c.front+"/admin/shards/"+strconv.Itoa(drained)+"/drain", nil)
	if status != http.StatusOK {
		t.Fatalf("drain: %d %s", status, body)
	}
	var report DrainReport
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if report.Drained != drained || report.Epoch != 2 || len(report.Topology) != 2 {
		t.Fatalf("drain report %+v", report)
	}
	if report.Moved < len(held) {
		t.Fatalf("report moved %d, held at least %d", report.Moved, len(held))
	}
	remaining := []int{0, 2}
	if got := c.rt.Topology().IDs(); !equalInts(got, remaining) {
		t.Fatalf("post-drain IDs %v, want %v", got, remaining)
	}

	// Every result envelope the shard held now lives on its rendezvous
	// owner under the NEW membership, byte-identical.
	for key, want := range held {
		if len(key) < 64 {
			continue
		}
		hash := key[len(key)-64:]
		owner := OwnerID(hash, remaining)
		if bytes.HasPrefix([]byte(key), []byte("sweep:")) {
			// Manifests merge-persist; assert presence, not bytes.
			resp, err := http.Get(c.backends[owner].URL + "/sweep/" + hash)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("manifest %s absent from new owner %d", key, owner)
			}
			continue
		}
		resp, err := http.Get(c.backends[owner].URL + "/results?key=" + url.QueryEscape(key))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("key %s absent from new owner %d: %d", key, owner, resp.StatusCode)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %s not byte-identical after migration", key)
		}
	}

	// The drained shard's keyspace replays as warm hits from the new
	// owners: re-run the sweep, no errors, no row served by the
	// retired ID, every row a hit.
	_, rows, summary, done = readSweep(t, c.front, gridRequest(600))
	if !done || summary.Errors != 0 {
		t.Fatalf("replay sweep: done=%v errors=%d", done, summary.Errors)
	}
	for _, row := range rows {
		if row.Shard == drained {
			t.Fatalf("row %s served by the drained shard", row.Name)
		}
		if row.Cache != "hit" {
			t.Fatalf("replay row %s cache %q, want hit from the new owner", row.Name, row.Cache)
		}
	}

	// Draining the unknown and the drained again both 404.
	if status, _, _ := post(t, c.front+"/admin/shards/1/drain", nil); status != http.StatusNotFound {
		t.Fatalf("double drain status %d, want 404", status)
	}
	if status, _, _ := post(t, c.front+"/admin/shards/99/drain", nil); status != http.StatusNotFound {
		t.Fatalf("unknown drain status %d, want 404", status)
	}
}

func TestConcurrentRunsDuringDrainNeverMiss(t *testing.T) {
	c := newResizeCluster(t, 3, true, 0)

	// Warm a fixed working set through the router: every spec cached on
	// its owner (memory + disk).
	specs := make([]map[string]any, 0, 12)
	for salt := 0; salt < 12; salt++ {
		sp := testSpec(700 + salt)
		req := map[string]any{"spec": sp, "model": "tl"}
		if status, _, body := post(t, c.front+"/run", req); status != http.StatusOK {
			t.Fatalf("warmup %d: %d %s", salt, status, body)
		}
		specs = append(specs, req)
	}

	// Hammer the warm set from several clients while shard 1 drains.
	stop := make(chan struct{})
	var misses, failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := specs[(g+i)%len(specs)]
				buf, _ := json.Marshal(req)
				resp, err := http.Post(c.front+"/run", "application/json", bytes.NewReader(buf))
				if err != nil {
					failures.Add(1)
					continue
				}
				cache := resp.Header.Get("X-Cache")
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				} else if cache == "miss" {
					// A previously-cached key must never be recomputed:
					// pre-swap it is served by its old owner's cache,
					// post-swap by the migrated copy on its new owner.
					misses.Add(1)
				}
			}
		}(g)
	}

	status, _, body := post(t, c.front+"/admin/shards/1/drain", nil)
	close(stop)
	wg.Wait()
	if status != http.StatusOK {
		t.Fatalf("drain under load: %d %s", status, body)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d request failures during drain", n)
	}
	if n := misses.Load(); n != 0 {
		t.Fatalf("%d cache misses during drain — a warm key went cold", n)
	}
}

func readAll(t *testing.T, resp *http.Response) ([]byte, error) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSupervisorRetireStateVisible(t *testing.T) {
	// Retire on an unknown id is a no-op, not a panic.
	s := &Supervisor{}
	s.Retire(42)
	if fmt.Sprint(ProcRetired) != "retired" {
		t.Fatal("retired state constant changed")
	}
}
