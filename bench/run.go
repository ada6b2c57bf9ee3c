package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/shard"
)

const (
	// coldPoolPerSecond sizes run_cold's never-seen inputs for every
	// second of -seconds: about one and a half times what the reference
	// host answers in that second plus its share of the warm-up round.
	// A round that outruns the pool fails loudly instead of repeating a spec.
	coldPoolPerSecond = 5500
	// warmSet is run_warm's working set; warmCacheEntries and
	// warmRouterCacheBytes hold about a quarter of it each, so the
	// router cache, the workers' memory tier and the disk tier all serve
	// a visible share and nothing ever simulates.
	warmSet              = 8192
	warmCacheEntries     = 2048
	warmRouterCacheBytes = 3 << 20
	// warmCountDiv shrinks the working set's transaction counts: the
	// workload never simulates after set-up, so cheap results make the
	// same cache traffic and a shorter pre-population.
	warmCountDiv = 8
	// checkEvery is the reference-check sampling: one reply in fifty is
	// compared with a direct core.Run.
	checkEvery = 50
	// traceRequests bounds the per-request spans a traced round keeps.
	traceRequests = 2000
)

// Reply classes by X-Cache value.
const (
	classMiss = iota
	classHit
	classRouterHit
	classCoalesced
	classOther
	numClasses
)

var classNames = [numClasses]string{"miss", "hit", "router_hit", "coalesced", "other"}

func classOf(xcache string) int {
	for c, name := range classNames[:classOther] {
		if xcache == name {
			return c
		}
	}
	return classOther
}

// sample is one 200 reply as the client saw it.
type sample struct {
	latNs int64
	class uint8
}

// kept is a reply held back for the reference check.
type kept struct {
	input int
	body  []byte
}

// runEnv serves run_cold (one worker, every request new) and run_warm
// (router plus two workers, requests drawn from a pre-populated set).
type runEnv struct {
	cfg     config
	cold    bool
	sys     *system
	clients []*client
	inputs  []input
	next    atomic.Int64 // run_cold: the next never-sent input
	rngs    []*rand.Rand // run_warm: each client's draw
	sent    atomic.Int64 // requests over the env's life, for the 1-in-50 sample
	mu      sync.Mutex
	kept    []kept
	// run_warm's cache sizes, for the record.
	cacheEntries int
	routerBytes  int64
	cal          *calibrator

	// The traced round's collections.
	traced  []sample
	timings []timing
	before  scrape
	after   scrape
}

func setupRunCold(cfg config, _ string) (env, error) {
	inputs, err := genInputs(rand.New(rand.NewSource(cfg.seed)), cfg.scaled(coldPoolPerSecond, 4400), 1)
	if err != nil {
		return nil, err
	}
	sys, err := startWorkers("", 1, service.Options{Workers: 2})
	if err != nil {
		return nil, err
	}
	return newRunEnv(cfg, true, sys, inputs), nil
}

func setupRunWarm(cfg config, tmp string) (env, error) {
	set, entries, routerBytes := warmSet, warmCacheEntries, int64(warmRouterCacheBytes)
	if cfg.quick {
		set, entries, routerBytes = 256, 64, 96<<10
	}
	inputs, err := genInputs(rand.New(rand.NewSource(cfg.seed)), set, warmCountDiv)
	if err != nil {
		return nil, err
	}
	sys, err := startCluster(tmp, 2,
		service.Options{Workers: 1, CacheEntries: entries},
		shard.Options{RouterCacheBytes: routerBytes})
	if err != nil {
		return nil, err
	}
	e := newRunEnv(cfg, false, sys, inputs)
	e.cacheEntries, e.routerBytes = entries, routerBytes
	if err := e.populate(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func newRunEnv(cfg config, cold bool, sys *system, inputs []input) *runEnv {
	e := &runEnv{cfg: cfg, cold: cold, sys: sys, inputs: inputs, cal: newHTTPCalibrator(cfg.clients)}
	for c := 0; c < cfg.clients; c++ {
		e.clients = append(e.clients, newClient(sys.url))
		e.rngs = append(e.rngs, rand.New(rand.NewSource(cfg.seed*1000003+int64(c)+1)))
	}
	return e
}

// populate posts the whole working set once, the clients sharing it
// between them; every reply must be a miss with the right hash.
func (e *runEnv) populate() error {
	var wg sync.WaitGroup
	errs := make([]error, len(e.clients))
	for c := range e.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(e.inputs); i += len(e.clients) {
				in := &e.inputs[i]
				status, hdr, _, err := e.clients[c].post("/run", in.body)
				if err != nil {
					errs[c] = err
					return
				}
				if status != 200 || hdr.Get("X-Cache") != "miss" || hdr.Get("X-Spec-Hash") != in.hash {
					errs[c] = fmt.Errorf("pre-populating spec %d: status %d, X-Cache %q", i, status, hdr.Get("X-Cache"))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pick chooses client c's next input, or -1 when run_cold has none left.
func (e *runEnv) pick(c int) int {
	if e.cold {
		i := int(e.next.Add(1) - 1)
		if i >= len(e.inputs) {
			return -1
		}
		return i
	}
	return e.rngs[c].Intn(len(e.inputs))
}

// allowed reports whether a reply of this class is right for the
// workload: run_cold must always simulate, run_warm never.
func (e *runEnv) allowed(class int) bool {
	if e.cold {
		return class == classMiss
	}
	return class == classHit || class == classRouterHit
}

// clientOut is what one client gathered over a round's slices.
type clientOut struct {
	samples   []sample
	timings   []timing
	attempted int
	failed    int
	exhausted bool
}

const (
	// loadSlices is how many slices of load a round is cut into, each
	// followed by a calibration slice 1/calShare as long.
	loadSlices = 8
	calShare   = 6
)

// loadSlice runs the closed loop for d: every client posts its next
// input, waits for the reply, checks it, and goes on.
func (e *runEnv) loadSlice(d time.Duration, tr *tracer, outs []clientOut, traceLeft *atomic.Int64) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range e.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			co := &outs[c]
			cl := e.clients[c]
			for !co.exhausted && time.Now().Before(deadline) {
				i := e.pick(c)
				if i < 0 {
					co.exhausted = true
					return
				}
				in := &e.inputs[i]
				spanID := -1
				if tr != nil && traceLeft.Add(-1) >= 0 {
					spanID = tr.begin("http.request", -1, i)
				}
				t0 := time.Now()
				status, hdr, body, err := cl.post("/run", in.body)
				lat := time.Since(t0)
				tr.end(spanID)
				co.attempted++
				class := classOther
				if err == nil {
					class = classOf(hdr.Get("X-Cache"))
				}
				if err != nil || status != 200 || hdr.Get("X-Spec-Hash") != in.hash || !e.allowed(class) {
					co.failed++
					continue
				}
				co.samples = append(co.samples, sample{latNs: int64(lat), class: uint8(class)})
				if tr != nil {
					if tm, ok := parseTiming(hdr.Get(service.TimingHeader)); ok {
						co.timings = append(co.timings, tm)
					}
				}
				if e.sent.Add(1)%checkEvery == 0 {
					e.mu.Lock()
					e.kept = append(e.kept, kept{input: i, body: body})
					e.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func (e *runEnv) round(rc roundCfg) (roundOut, error) {
	outs := make([]clientOut, len(e.clients))
	for c := range outs {
		outs[c].samples = make([]sample, 0, 1<<14)
	}
	var traceLeft atomic.Int64
	traceLeft.Store(traceRequests)
	if rc.tr != nil {
		var err error
		if e.before, err = e.clients[0].scrape(); err != nil {
			return roundOut{}, err
		}
	}
	// Load and calibration alternate, so both see the same stretch of
	// the host; only the load slices count towards the round's length.
	var elapsed time.Duration
	for s := 0; s < loadSlices; s++ {
		elapsed += e.loadSlice(rc.dur/loadSlices, rc.tr, outs, &traceLeft)
		e.cal.slice(rc.dur / loadSlices / calShare)
	}

	out := roundOut{also: map[string]float64{}, speed: e.cal.take()}
	var all []sample
	for _, co := range outs {
		out.attempted += co.attempted
		out.failed += co.failed
		all = append(all, co.samples...)
		if co.exhausted {
			// Repeating a spec would turn misses into hits; fail instead.
			out.attempted++
			out.failed++
		}
		if rc.tr != nil {
			e.timings = append(e.timings, co.timings...)
		}
	}
	if len(all) == 0 {
		return out, fmt.Errorf("no successful reply in a %v round (%d attempted)", rc.dur, out.attempted)
	}
	lats := make([]float64, len(all))
	var byClass [numClasses]int
	for i, s := range all {
		lats[i] = float64(s.latNs) / 1e6
		byClass[s.class]++
	}
	out.ops = len(all)
	out.throughput = float64(len(all)) / elapsed.Seconds()
	out.p50ms = median(lats)
	for c, n := range byClass {
		if n > 0 {
			out.also["xcache_"+classNames[c]+"_share"] = float64(n) / float64(len(all))
		}
	}
	if rc.tr != nil {
		var err error
		if e.after, err = e.clients[0].scrape(); err != nil {
			return out, err
		}
		e.traced = all
	}
	return out, nil
}

// finish compares the held-back replies with direct simulations.
func (e *runEnv) finish() (attempted, failed int, notes []string, err error) {
	checked := map[int]bool{}
	for _, k := range e.kept {
		if checked[k.input] {
			continue
		}
		checked[k.input] = true
		attempted++
		var got service.RunResponse
		if err := json.Unmarshal(k.body, &got); err != nil {
			failed++
			continue
		}
		in := &e.inputs[k.input]
		sp, err := in.spec()
		if err != nil {
			return attempted, failed, nil, fmt.Errorf("decoding generated spec %d: %w", k.input, err)
		}
		w, err := core.FromSpec(sp)
		if err != nil {
			return attempted, failed, nil, fmt.Errorf("compiling generated spec %d: %w", k.input, err)
		}
		ref := core.Run(w, core.TLM, core.Options{})
		if got.Hash != in.hash || got.Cycles != uint64(ref.Cycles) || got.Completed != ref.Completed {
			failed++
		}
	}
	notes = append(notes, fmt.Sprintf("%d sampled replies compared with a direct core.Run", attempted))
	if !e.cold {
		attempted += len(e.inputs) // the pre-population replies, all checked in set-up
	}
	return attempted, failed, notes, nil
}

// layers derives the HTTP-side per-layer metrics from the traced round.
func (e *runEnv) layers(samples map[string][]float64) error {
	var lat [numClasses][]float64
	var all []float64
	for _, s := range e.traced {
		us := float64(s.latNs) / 1e3
		lat[s.class] = append(lat[s.class], us)
		all = append(all, us)
	}
	asc := sorted(all)
	p50, p99 := percentile(asc, 50), percentile(asc, 99)
	cacheShares(e.before, e.after, samples)
	samples["sched.rejected"] = []float64{delta(e.before, e.after, "simd_rejections_total")}
	if err := obsProbe(e.after.body, samples); err != nil {
		return err
	}
	if e.cold {
		var queue, simulate, encode []float64
		for _, t := range e.timings {
			queue = append(queue, float64(t.queue)/1e3)
			simulate = append(simulate, float64(t.simulate)/1e3)
			encode = append(encode, float64(t.encode)/1e3)
		}
		samples["service.queue_us"] = queue
		samples["service.simulate_us"] = simulate
		samples["service.encode_us"] = encode
		samples["service.p99_ms"] = []float64{p99 / 1e3}
		if sim := median(simulate); sim > 0 {
			samples["service.cold_overhead_x"] = []float64{p50 / sim}
		}
		// What the replayed layer spans (decode to encode; this worker
		// has no disk tier) leave unexplained of the client's median:
		// HTTP, mux, middleware, cache walk, queueing.
		samples["service.http_residual_us"] = []float64{p50 - median(samples["replay.request_us"])}
		return nil
	}
	samples["service.hit_p50_us"] = lat[classHit]
	samples["shard.router_hit_p50_us"] = lat[classRouterHit]
	samples["shard.p99_ms"] = []float64{p99 / 1e3}
	samples["shard.steals"] = []float64{delta(e.before, e.after, "simd_router_steals_total")}
	samples["shard.failovers"] = []float64{delta(e.before, e.after, "simd_router_failovers_total")}
	samples["shard.retries"] = []float64{delta(e.before, e.after, "simd_router_retries_total")}
	return nil
}

func (e *runEnv) config() map[string]any {
	if e.cold {
		return map[string]any{
			"shape": "1 memory-only worker", "service_workers": 2, "inputs_generated": len(e.inputs),
			"model": "tl", "count_jitter": countJitter, "reference_check_every": checkEvery,
		}
	}
	return map[string]any{
		"shape": "router + 2 workers", "service_workers_each": 1, "working_set": len(e.inputs),
		"cache_entries_each": e.cacheEntries, "router_cache_bytes": e.routerBytes,
		"count_div": warmCountDiv, "model": "tl", "reference_check_every": checkEvery,
	}
}

func (e *runEnv) checksum() string { return "" }

func (e *runEnv) close() {
	for _, c := range e.clients {
		c.close()
	}
	e.cal.close()
	e.sys.close()
}
