// Resize drill: drive a supervised cluster through a live grow and a
// live drain under load, and prove elasticity costs nothing the
// serving layer promised:
//
//  1. computes the fault-free reference: an in-process single server
//     runs a 64-variant grid through /sweep/analyze; that JSON
//     document is the byte-exact truth every later analysis must
//     reproduce, resizes or no resizes;
//
//  2. spawns TWO real simd worker processes under the shard
//     supervisor behind an in-process router, starts streaming the
//     64-variant sweep, and — after the first row arrives — POSTs
//     /admin/shards {"count":2} to grow the cluster to four workers
//     MID-SWEEP: the stream must finish with zero error rows and a
//     truthful summary, the topology must land at epoch 2 with four
//     members, and a post-grow /sweep/analyze must answer
//     byte-identically to the reference;
//
//  3. re-sweeps after the grow (the new members now own their
//     rendezvous slices — rows served by shards 2 and 3 prove the
//     admission was real, and re-owned variants recompute to the
//     same bytes);
//
//  4. drains shard 1 while four clients hammer its warm keyspace
//     with /run repeats: POST /admin/shards/1/drain must migrate
//     every envelope to the survivors BEFORE the membership swap, so
//     the hammering clients see zero failures and zero cache misses
//     throughout, and the supervisor must retire the worker process
//     (state "retired", never respawned);
//
//  5. replays the full sweep on the shrunk cluster: zero error rows,
//     no row served by the retired ID, EVERY row a warm "hit" — the
//     drained shard's keys answered from their new owners' stores —
//     and a final /sweep/{id}/analyze byte-identical to the
//     reference with zero re-simulation.
//
//     go run ./examples/resize_service [-simd PATH]
//
// With no -simd the drill builds the binary itself (`go build`). CI
// runs this as the resize smoke; it exits nonzero on any violation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clustertest"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spec"
)

var fail = clustertest.Fail

// sweepRequest is the drill grid: 64 TL-model variants of a small
// workload, so the whole drill — two full sweeps, a grow, a drain under
// load — stays a smoke.
func sweepRequest() service.SweepRequest {
	return clustertest.Grid64(clustertest.Workload("resize/base", 600), "resize/grid", "tl")
}

// runSweep streams the drill grid, invoking onRow per data row as it
// arrives.
func runSweep(url string, onRow func(r shard.Row)) ([]shard.Row, service.SweepSummary) {
	rows, summary, _ := clustertest.RunSweep(url, sweepRequest(), onRow)
	return rows, summary
}

// postAnalyze analyzes the drill grid and requires a complete document.
func postAnalyze(url string) []byte {
	doc, body := clustertest.PostAnalyze(url, service.AnalyzeRequest{SweepRequest: sweepRequest(), Request: clustertest.Analysis(5)})
	if doc.Incomplete {
		fail("analysis incomplete: %s", body)
	}
	return body
}

func topology(front string) shard.Topology {
	_, _, body := clustertest.Get(front + "/admin/shards")
	var top shard.Topology
	if err := json.Unmarshal(body, &top); err != nil {
		fail("topology: %v", err)
	}
	return top
}

func postAdmin(front, path string, body any) (int, []byte) {
	status, _, out := clustertest.Post(front+path, body)
	return status, out
}

func main() {
	simd := clustertest.SimdFlag()
	flag.Parse()
	tmp, bin := clustertest.Workspace("resizesmoke", *simd)
	defer os.RemoveAll(tmp)

	// 1. The fault-free reference analysis, computed in-process.
	ref, err := service.New(service.Options{Workers: 4, StoreDir: filepath.Join(tmp, "ref")})
	if err != nil {
		fail("reference server: %v", err)
	}
	refTS := httptest.NewServer(ref.Handler())
	refBody := postAnalyze(refTS.URL)
	refTS.Close()
	ref.Close()
	fmt.Printf("fault-free reference: %d analysis bytes\n", len(refBody))

	// The same grid, expanded locally: the row-count truth and the
	// source of warm /run bodies for the drain-under-load phase.
	variants := clustertest.Variants(sweepRequest())
	specByName := make(map[string]spec.Spec, len(variants))
	for _, v := range variants {
		specByName[v.Spec.Name] = v.Spec
	}

	// 2. The elastic cluster: two supervised workers to start. The
	// argsFor closure keys store directories by STABLE shard ID, so
	// workers admitted later get their own fresh stores.
	dir := filepath.Join(tmp, "cluster")
	sup, err := shard.Spawn(bin, 2, func(i int) []string {
		return []string{"-workers", "1", "-store", filepath.Join(dir, fmt.Sprintf("shard-%d", i))}
	}, os.Stderr)
	if err != nil {
		fail("spawning cluster: %v", err)
	}
	defer sup.Stop()
	rt, err := shard.New(shard.Options{Backends: sup.URLs(), Supervisor: sup})
	if err != nil {
		fail("router: %v", err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	if top := topology(front.URL); top.Epoch != 1 || len(top.Members) != 2 {
		fail("boot topology: %+v", top)
	}

	// Grow 2→4 mid-sweep: fire the admin call from the row callback so
	// the membership swap lands while the stream is in flight.
	var grew sync.Once
	var growErr atomic.Value
	rows, summary := runSweep(front.URL, func(r shard.Row) {
		grew.Do(func() {
			status, body := postAdmin(front.URL, "/admin/shards", map[string]any{"count": 2})
			if status != http.StatusOK {
				growErr.Store(fmt.Sprintf("grow status %d: %s", status, body))
			}
		})
	})
	if e := growErr.Load(); e != nil {
		fail("%s", e)
	}
	if summary.Errors != 0 {
		fail("mid-grow sweep carried %d error rows, want 0", summary.Errors)
	}
	if len(rows) != len(variants) {
		fail("mid-grow sweep carried %d rows, want %d", len(rows), len(variants))
	}
	top := topology(front.URL)
	if top.Epoch != 2 || len(top.Members) != 4 {
		fail("post-grow topology: %+v", top)
	}
	fmt.Printf("grew 2→4 mid-sweep: %d rows, 0 errors, epoch %d\n", len(rows), top.Epoch)
	if body := postAnalyze(front.URL); !bytes.Equal(body, refBody) {
		fail("post-grow analysis differs from the fault-free reference:\n%s\n%s", body, refBody)
	}

	// 3. The admission was real: a fresh sweep routes re-owned
	// variants to the new members.
	rows, summary = runSweep(front.URL, nil)
	if summary.Errors != 0 {
		fail("post-grow sweep carried %d error rows", summary.Errors)
	}
	newServed := 0
	for _, r := range rows {
		if r.Shard >= 2 {
			newServed++
		}
	}
	if newServed == 0 {
		fail("no row served by an admitted shard — the grow changed nothing")
	}
	fmt.Printf("post-grow sweep: %d/%d rows served by the new members\n", newServed, len(rows))

	// 4. Drain shard 1 under load: four clients hammer its (warm)
	// keyspace; nobody may see a failure or a recompute. The warm
	// request bodies come from the local grid expansion, matched to
	// rows by variant name.
	warm := make([][]byte, 0, len(rows))
	for _, r := range rows {
		if r.Shard != 1 || r.Error != "" {
			continue
		}
		sp, ok := specByName[r.Name]
		if !ok {
			fail("row %s has no local grid counterpart", r.Name)
		}
		warm = append(warm, clustertest.Marshal(service.RunRequest{Spec: &sp, Model: "tl"}))
	}
	if len(warm) == 0 {
		fail("shard 1 served nothing — degenerate drill")
	}
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
				resp, err := http.Post(front.URL+"/run", "application/json", bytes.NewReader(warm[(g+i)%len(warm)]))
				if err != nil {
					failures.Add(1)
					continue
				}
				cache := resp.Header.Get("X-Cache")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				} else if cache == "miss" {
					misses.Add(1)
				}
			}
		}(g)
	}
	status, body := postAdmin(front.URL, "/admin/shards/1/drain", nil)
	close(stop)
	wg.Wait()
	if status != http.StatusOK {
		fail("drain status %d: %s", status, body)
	}
	var report shard.DrainReport
	if err := json.Unmarshal(body, &report); err != nil {
		fail("drain report: %v", err)
	}
	if report.Drained != 1 || report.Moved == 0 {
		fail("drain report implausible: %+v", report)
	}
	if n := failures.Load(); n != 0 {
		fail("%d /run failures during the drain", n)
	}
	if n := misses.Load(); n != 0 {
		fail("%d cache misses during the drain — a warm key went cold", n)
	}
	top = topology(front.URL)
	if top.Epoch != 3 || len(top.Members) != 3 {
		fail("post-drain topology: %+v", top)
	}
	fmt.Printf("drained shard 1 under load: moved %d envelopes, 0 failures, 0 misses, epoch %d\n",
		report.Moved, top.Epoch)

	// The supervisor retired the worker — and never respawns it.
	retired := false
	deadline := time.Now().Add(10 * time.Second)
	for !retired && time.Now().Before(deadline) {
		for _, p := range sup.Status() {
			if p.Index == 1 && p.State == shard.ProcRetired {
				retired = true
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !retired {
		fail("supervisor never marked shard 1 retired: %+v", sup.Status())
	}

	// 5. The drained keyspace replays warm from its new owners.
	rows, summary = runSweep(front.URL, nil)
	if summary.Errors != 0 {
		fail("post-drain sweep carried %d error rows", summary.Errors)
	}
	for _, r := range rows {
		if r.Shard == 1 {
			fail("row %s served by the drained shard", r.Name)
		}
		if r.Cache != "hit" {
			fail("post-drain row %s disposition %q, want a warm hit from its new owner", r.Name, r.Cache)
		}
	}
	if body := postAnalyze(front.URL); !bytes.Equal(body, refBody) {
		fail("post-drain analysis differs from the fault-free reference")
	}
	fmt.Printf("post-drain replay: %d rows, all warm hits from the surviving members\n", len(rows))
	fmt.Println("resize_service: OK")
}
