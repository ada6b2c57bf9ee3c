// Fairness drill: one tenant's saturating 10,000-variant sweep must
// not starve another tenant's interactive traffic. Against a 2-shard
// supervised cluster of real simd workers (weighted-fair scheduling
// on, the default), the drill proves the internal/sched contract
// end to end:
//
//  1. tenant "alice" measures her idle-cluster baseline: a run of
//     unique interactive /run probes through the router, p99 noted;
//
//  2. tenant "sweeper" streams 10k-variant RTL sweeps (batch class —
//     the /sweep default) back to back, each grid under a fresh name
//     so every variant is a miss, and holds that load until alice's
//     probing ends; the drill waits until the cluster healthz shows a
//     batch backlog: the sweep is saturating the workers' batch
//     queues;
//
//  3. while the sweep streams, alice's worker healthz must stay
//     honest per class: the batch queue advertises a real
//     Retry-After, the interactive class does NOT inherit it (the
//     per-class bugfix), and the sched block names the sweeper's
//     tenant queue exactly as the metric labels do;
//
//  4. alice sends paced interactive probes DURING the sweeps: every
//     one must answer 200 (no admission rejection — her class queue
//     is not the sweep's), and the p99 of the probes that overlapped
//     the sweeps must stay within 5x her idle baseline — bounded
//     latency under a saturating background sweep, the starvation-
//     resistance acceptance gate;
//
//  5. every sweep completes with done=true, its full row count and
//     ZERO error rows — fairness throttles the batch class, it never
//     breaks it — and
//     the sched metric families (simd_sched_queue_depth{tenant,class},
//     simd_sched_wait_seconds{class}) are present on the scrape.
//
//     go run ./examples/fair_service [-simd PATH] [-variants N]
//
// With no -simd the drill builds the binary itself (`go build`). CI
// runs this as the fairness smoke under -race; it exits nonzero on
// any violation.
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
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/clustertest"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/sweep"
)

const (
	shardCount   = 2
	shardWorkers = 3
	// idleProbes sizes the baseline sample and loadedProbes the sample
	// taken under the held sweep load, of which at least minOverlap
	// must have been taken while a sweep was in flight.
	idleProbes   = 40
	loadedProbes = 60
	minOverlap   = 30
	probePace    = 20 * time.Millisecond
	// idleFloor guards the baseline against timer noise: on a fast
	// machine the idle p99 is a few ms, and 5x a noise-sized number
	// is not a meaningful bound. The scheduler is also non-preemptive
	// — an interactive arrival must wait for an in-flight batch
	// variant to retire, so the bound has to absorb at least one
	// batch service time (tens of ms under -race). Genuine FIFO
	// starvation under a 10k backlog is SECONDS, so flooring the
	// baseline at 100ms keeps the 5x gate honest while not failing
	// on job-granularity waits.
	idleFloor = 100 * time.Millisecond
)

var fail = clustertest.Fail

// sweepRequest is the round-th saturating grid: 25 x 20 x 20 = 10,000
// distinct workloads by default, truncated along the first axis when
// -variants asks for a smaller drill. The round is in the grid's name,
// which every variant's name — and so its hash — carries: no round
// replays another's results from the cache.
func sweepRequest(variants, round int) service.SweepRequest {
	base := clustertest.TinyWorkload("fair/base")
	return service.SweepRequest{
		Base: &base, Name: fmt.Sprintf("fair/grid-%d", round), Model: "rtl",
		Axes: []service.SweepAxis{
			{Param: sweep.ParamUrgencyThreshold, Values: clustertest.Ints(max(variants/400, 1), 0)}, // 20 x 20 inner product
			{Param: sweep.ParamCount, Values: clustertest.Ints(20, 10)},
			{Param: sweep.ParamWriteBufferDepth, Values: clustertest.Ints(20, 0)},
		},
	}
}

// probeSpec is alice's i-th interactive request: a unique stream base
// address per probe, so every probe is a genuine cache-miss
// simulation (a cached answer would measure the LRU, not the
// scheduler) in a key space disjoint from the sweep's.
func probeSpec(i int) spec.Spec {
	sp := clustertest.TinyWorkload(fmt.Sprintf("fair/probe-%d", i))
	sp.Masters[1].Base = 0x100000 + uint32(i)*0x1000
	return sp
}

// probe posts one interactive /run as the given tenant and returns
// the request latency.
func probe(front string, i int, tenant string) time.Duration {
	sp := probeSpec(i)
	start := time.Now()
	status, _, respBody := clustertest.Do(http.MethodPost, front+"/run",
		service.RunRequest{Spec: &sp, Model: "rtl"}, http.Header{service.TenantHeader: {tenant}})
	elapsed := time.Since(start)
	if status != http.StatusOK {
		fail("probe %d status %d (interactive traffic must never be rejected for the sweep's backlog): %s",
			i, status, respBody)
	}
	return elapsed
}

// p99 returns the 99th-percentile of the samples (the max for small
// sample sizes — conservative, never flattering).
func p99(durs []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (99*len(sorted) + 99) / 100 // ceil(0.99n)
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// clusterBatchQueued reads the aggregated healthz and returns the
// batch class's cluster-wide queue depth (and whether the sched
// block was present at all).
func clusterBatchQueued(front string) (int, bool) {
	ch, err := clustertest.ClusterHealth(front)
	if err != nil {
		return 0, false
	}
	for _, cs := range ch.Sched {
		if cs.Class == sched.Batch.String() {
			return cs.Queued, true
		}
	}
	return 0, false
}

// streamSweep streams one grid as tenant sweeper and fails the drill
// unless it finishes done=true with every one of its total rows and no
// error row.
func streamSweep(front string, req service.SweepRequest, total int) {
	httpReq, err := http.NewRequest(http.MethodPost, front+"/sweep", bytes.NewReader(clustertest.Marshal(req)))
	if err != nil {
		fail("%v", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(service.TenantHeader, "sweeper")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		fail("sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		fail("sweep status %d: %s", resp.StatusCode, body)
	}
	rows := 0
	summary, done, err := service.DecodeSweepStream(resp.Body, func(line []byte) error {
		var row shard.Row
		if err := json.Unmarshal(line, &row); err != nil {
			return err
		}
		if row.Error != "" {
			fail("sweep error row %d (fairness must throttle the batch class, never break it): %s",
				row.Index, row.Error)
		}
		rows++
		return nil
	})
	if err != nil {
		fail("sweep stream: %v", err)
	}
	if !done || summary.Errors != 0 || rows != total || summary.Rows != total {
		fail("sweep %s finished dishonestly: done=%v rows=%d summary=%+v want %d rows, zero errors",
			req.Name, done, rows, summary, total)
	}
}

func main() {
	bin := clustertest.SimdFlag()
	variants := flag.Int("variants", 10_000, "sweep grid size (rounded to the axes product)")
	flag.Parse()
	tmp, simd := clustertest.Workspace("fairsvc", *bin)
	defer os.RemoveAll(tmp)

	// The cluster: 2 shards x 3 workers, weighted-fair scheduling on
	// (the default), small enough that a 10k-variant sweep saturates.
	sup, err := shard.SpawnWith(simd, shardCount, func(i int) []string {
		return []string{
			"-workers", fmt.Sprint(shardWorkers),
			"-store", filepath.Join(tmp, fmt.Sprintf("shard-%d", i)),
		}
	}, shard.SpawnOptions{})
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

	// 1. Alice's idle baseline.
	idle := make([]time.Duration, 0, idleProbes)
	for i := 0; i < idleProbes; i++ {
		idle = append(idle, probe(front.URL, i, "alice"))
	}
	idleP99 := p99(idle)
	bound := 5 * max(idleP99, idleFloor)
	fmt.Printf("idle baseline: %d interactive probes, p99 %v (latency bound %v)\n",
		idleProbes, idleP99.Round(time.Millisecond), bound.Round(time.Millisecond))

	// 2. The sweeper's saturating load, drained in the background: one
	// grid after another until alice's loaded probing is over, so that
	// every loaded probe overlaps a sweep by construction rather than
	// by racing a single sweep's finish (one 10k grid can end in under
	// two seconds on a small host).
	total := (max(*variants/400, 1)) * 400
	probing := make(chan struct{})
	swept := make(chan int, 1)
	var sweeping atomic.Bool // a grid's stream is open
	sweepStart := time.Now()
	go func() {
		grids := 0
		for {
			sweeping.Store(true)
			streamSweep(front.URL, sweepRequest(*variants, grids), total)
			sweeping.Store(false)
			grids++
			select {
			case <-probing:
				swept <- grids
				return
			default:
			}
		}
	}()

	// Wait for genuine saturation: the cluster-wide batch queue is
	// backlogged.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if queued, ok := clusterBatchQueued(front.URL); ok && queued > 0 {
			fmt.Printf("sweep saturating: cluster batch queue depth %d\n", queued)
			break
		}
		if time.Now().After(deadline) {
			fail("cluster healthz never showed a batch backlog — sched block missing or sweep not saturating")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// 3. Per-class honesty on a worker healthz mid-sweep: batch
	// advertises a real backoff, interactive does not inherit it, and
	// the sweeper's tenant queue is named exactly as the metric
	// labels key it.
	checkedWorker := false
	for attempt := 0; attempt < 100 && !checkedWorker; attempt++ {
		for _, url := range sup.URLs() {
			_, _, body := clustertest.Get(url + "/healthz")
			var h service.Health
			if json.Unmarshal(body, &h) != nil || h.Sched == nil {
				fail("worker %s healthz lacks the sched block: %s", url, body)
			}
			var batch, interactive *sched.ClassStatus
			for i := range h.Sched.Classes {
				switch h.Sched.Classes[i].Class {
				case sched.Batch.String():
					batch = &h.Sched.Classes[i]
				case sched.Interactive.String():
					interactive = &h.Sched.Classes[i]
				}
			}
			if batch == nil || interactive == nil {
				fail("worker %s sched block misses a class: %s", url, body)
			}
			if batch.Queued == 0 {
				continue // this worker drained just now; try the other
			}
			if batch.RetryAfter < 1 {
				fail("worker %s: batch queued %d yet retry_after %d", url, batch.Queued, batch.RetryAfter)
			}
			if interactive.RetryAfter > 2 {
				fail("worker %s: interactive retry_after %d inherited the sweep's backlog (batch %d) — per-class Retry-After broken",
					url, interactive.RetryAfter, batch.RetryAfter)
			}
			sweeperNamed := false
			for _, t := range h.Sched.Tenants {
				if t.Tenant == "sweeper" && t.Class == sched.Batch.String() && t.Queued > 0 {
					sweeperNamed = true
				}
			}
			if !sweeperNamed {
				fail("worker %s: batch queued %d but no sweeper tenant row in %s", url, batch.Queued, body)
			}
			checkedWorker = true
			break
		}
		if !checkedWorker {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !checkedWorker {
		fail("no worker ever showed a backlogged batch class with a sweeper tenant row")
	}
	fmt.Println("worker healthz honest per class: batch backs off, interactive does not, sweeper's queue named")

	// 4. Alice probes during the held sweep load. Only probes with a
	// grid's stream open at both ends count toward the loaded p99 —
	// that is the population the acceptance gate is about.
	loaded := make([]time.Duration, 0, loadedProbes)
	for i := 0; i < loadedProbes; i++ {
		before := sweeping.Load()
		d := probe(front.URL, idleProbes+i, "alice")
		if before && sweeping.Load() {
			loaded = append(loaded, d)
		}
		time.Sleep(probePace)
	}
	close(probing)
	if len(loaded) < minOverlap {
		fail("only %d probes overlapped the sweep (want >= %d)", len(loaded), minOverlap)
	}
	loadedP99 := p99(loaded)
	fmt.Printf("loaded: %d interactive probes during the sweep, p99 %v, all 200\n",
		len(loaded), loadedP99.Round(time.Millisecond))
	if loadedP99 > bound {
		fail("interactive p99 %v under the sweep exceeds %v (5x idle p99 %v) — starvation resistance broken",
			loadedP99, bound, idleP99)
	}

	// 5. The sweep in flight when probing ended finishes intact, like
	// every grid before it (streamSweep checked each one).
	var grids int
	select {
	case grids = <-swept:
	case <-time.After(15 * time.Minute):
		fail("sweep did not finish within 15m")
	}
	fmt.Printf("sweeps complete: %d x %d rows, zero errors, %v total\n",
		grids, total, time.Since(sweepStart).Round(time.Millisecond))

	// The sched metric families are on the worker scrape, keyed like
	// the healthz blocks the drill just read.
	fams := clustertest.ScrapeMetrics(sup.URLs()[0])
	if len(obs.Find(fams, "simd_sched_queue_depth", "tenant", "sweeper", "class", "batch")) == 0 {
		fail(`worker metrics missing simd_sched_queue_depth{tenant="sweeper",class="batch"}`)
	}
	for _, want := range []string{"simd_sched_wait_seconds_count", "simd_sched_rejections_total", "simd_sched_dispatched_total"} {
		if len(obs.Find(fams, want)) == 0 {
			fail("worker metrics missing %s", want)
		}
	}
	// And the aggregated router scrape re-exposes them per shard.
	if len(obs.Find(clustertest.ScrapeMetrics(front.URL), "simd_sched_queue_depth")) == 0 {
		fail("aggregated router metrics missing simd_sched_queue_depth")
	}

	fmt.Printf("fairness smoke OK: interactive p99 %v under %d saturating %d-variant sweep(s) (bound %v), zero rejections, zero error rows\n",
		loadedP99.Round(time.Millisecond), grids, total, bound.Round(time.Millisecond))
}
