package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
)

// probeLayers measures every layer from outside, around calls into its
// public functions, on inputs generated from the seed. It runs at the
// start of every traced run, whatever the workload, so a layer's own
// cost is on record next to the HTTP-side numbers of that run.
func probeLayers(cfg config, tmp string, tr *tracer, samples map[string][]float64) error {
	n := traceRequests
	if cfg.quick {
		n = 60
	}
	inputs, err := genInputs(rand.New(rand.NewSource(cfg.seed)), n, 1)
	if err != nil {
		return err
	}
	if err := replay(inputs, tmp, tr, samples); err != nil {
		return err
	}
	probeModels(cfg, samples)
	probeSim(cfg, samples)
	probeSched(cfg, samples)
	probeOwner(inputs, samples)
	if err := probeProxyHop(inputs, samples); err != nil {
		return err
	}
	return probeSweep(cfg, samples)
}

// replay walks each generated request through the layers in the order
// a worker does on a miss (decode, validate, compile, hash, simulate,
// encode), each step a span under the request's span, then stores the
// result (store.Put), reads everything back the way a hit does
// (store.Get, store.Peek), and reopens the store.
func replay(inputs []input, tmp string, tr *tracer, samples map[string][]float64) error {
	dir, err := os.MkdirTemp(tmp, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	timed := func(name string, parent, req int, fn func()) {
		id := tr.begin(name, parent, req)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		tr.end(id)
		samples[name+"_us"] = append(samples[name+"_us"], float64(d)/1e3)
	}
	keys := make([]string, len(inputs))
	for i := range inputs {
		in := &inputs[i]
		var stepErr error
		var req service.RunRequest
		var w core.Workload
		var hash string
		var res core.RunResult
		var body []byte
		root := tr.begin("replay.request", -1, i)
		t0 := time.Now()
		timed("spec.decode", root, i, func() {
			dec := json.NewDecoder(bytes.NewReader(in.body))
			dec.DisallowUnknownFields()
			stepErr = dec.Decode(&req)
		})
		if stepErr != nil {
			return fmt.Errorf("replay decode %d: %w", i, stepErr)
		}
		timed("spec.validate", root, i, func() { stepErr = req.Spec.Validate() })
		if stepErr != nil {
			return fmt.Errorf("replay validate %d: %w", i, stepErr)
		}
		timed("core.compile", root, i, func() { w, stepErr = core.FromSpec(*req.Spec) })
		if stepErr != nil {
			return fmt.Errorf("replay compile %d: %w", i, stepErr)
		}
		timed("spec.hash", root, i, func() { hash, stepErr = req.Spec.Hash() })
		if stepErr != nil || hash != in.hash {
			return fmt.Errorf("replay hash %d: %q, want %q (%v)", i, hash, in.hash, stepErr)
		}
		timed("core.run_tl", root, i, func() { res = core.Run(w, core.TLM, core.Options{}) })
		timed("replay.encode", root, i, func() {
			body, stepErr = json.Marshal(service.RunResponse{
				Name: req.Spec.Name, Hash: hash, Model: res.Model.String(), Cycles: uint64(res.Cycles),
				Completed: res.Completed, Violations: res.Violations, Stats: res.Stats,
			})
		})
		if stepErr != nil {
			return fmt.Errorf("replay encode %d: %w", i, stepErr)
		}
		keys[i], stepErr = service.ResultKey("tl", hash)
		if stepErr != nil {
			return stepErr
		}
		tr.end(root)
		samples["replay.request_us"] = append(samples["replay.request_us"], float64(time.Since(t0))/1e3)
		timed("store.put", -1, i, func() { stepErr = st.Put(keys[i], body) })
		if stepErr != nil {
			return fmt.Errorf("replay put %d: %w", i, stepErr)
		}
		samples["spec.bytes"] = append(samples["spec.bytes"], float64(len(in.body)))
		samples["store.put_bytes"] = append(samples["store.put_bytes"], float64(len(body)))
	}
	for i, key := range keys {
		ok := false
		timed("store.get", -1, i, func() { _, ok = st.Get(key) })
		if !ok {
			return fmt.Errorf("replay: stored key %d not found", i)
		}
		timed("store.peek", -1, i, func() { _, ok = st.Peek(key) })
		if !ok {
			return fmt.Errorf("replay: stored key %d not peekable", i)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	id := tr.begin("store.open", -1, 0)
	t0 := time.Now()
	st, err = store.Open(dir, 0)
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	defer st.Close()
	// The populated directory must reopen from its index, not a rescan.
	if stats := st.StatsSnapshot(); stats.IndexLoads != 1 || st.Len() != len(keys) {
		return fmt.Errorf("store reopen: index loads %d, entries %d of %d", stats.IndexLoads, st.Len(), len(keys))
	}
	samples["store.open_ms"] = []float64{float64(d) / 1e6}
	return nil
}

// probeModels times both models on the paper's workloads and counts
// their allocations exactly.
func probeModels(cfg config, samples map[string][]float64) {
	ws, _ := kernelWorkloads()
	for _, m := range []struct {
		model core.Model
		layer string
	}{{core.TLM, "tlm"}, {core.RTL, "rtl"}} {
		var host time.Duration
		var cycles uint64
		for _, w := range ws {
			t0 := time.Now()
			res := core.Run(w, m.model, core.Options{})
			d := time.Since(t0)
			host += d
			cycles += uint64(res.Cycles)
			if m.model == core.RTL {
				samples["core.run_rtl_us"] = append(samples["core.run_rtl_us"], float64(d)/1e3)
			}
		}
		samples[m.layer+".ns_per_cycle"] = []float64{float64(host) / float64(cycles)}
	}
	multi, _ := core.SpeedWorkloads(1000)
	reps := 5
	if cfg.quick {
		reps = 1
	}
	perRun := func(model core.Model) (hostNs, allocs, bytesPer float64) {
		core.Run(multi, model, core.Options{}) // warm any lazy set-up out of the count
		// Counted on one P with nothing else running, as
		// testing.AllocsPerRun does, so the figures are exact.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			core.Run(multi, model, core.Options{})
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		n := float64(reps)
		return float64(d) / n, float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	tlNs, tlAllocs, tlBytes := perRun(core.TLM)
	rtlNs, rtlAllocs, rtlBytes := perRun(core.RTL)
	samples["tlm.allocs_per_run"] = []float64{tlAllocs}
	samples["tlm.bytes_per_run"] = []float64{tlBytes}
	samples["rtl.allocs_per_run"] = []float64{rtlAllocs}
	samples["rtl.bytes_per_run"] = []float64{rtlBytes}
	// The paper's headline ratio (353x there), on its speed workload.
	samples["core.tl_rtl_speedup"] = []float64{rtlNs / tlNs}
}

// tick and gated are the smallest components the cycle kernel can run:
// one always evaluated, one always asleep.
type tick struct{ n int }

func (c *tick) Name() string   { return "tick" }
func (c *tick) Eval(sim.Cycle) { c.n++ }
func (*tick) Update(sim.Cycle) {}

type gated struct{ tick }

func (*gated) Quiescent(now sim.Cycle) (sim.Cycle, bool) { return now + 1000, true }

// probeSim times the two simulation kernels alone: the event wheel the
// TLM runs on and the cycle kernel the RTL model runs on.
func probeSim(cfg config, samples map[string][]float64) {
	events := 2_000_000
	if cfg.quick {
		events = 20_000
	}
	s := sim.NewScheduler()
	noop := func(sim.Cycle, any, uint64) {}
	t0 := time.Now()
	for i := 0; i < events; i++ {
		s.Post(s.Now()+3, noop, nil, 0)
		if i%64 == 63 {
			s.RunAll()
		}
	}
	s.RunAll()
	samples["sim.wheel_ns_per_event"] = []float64{float64(time.Since(t0)) / float64(events)}

	busy := sim.NewKernel()
	for i := 0; i < 8; i++ {
		busy.Register(&tick{})
	}
	t0 = time.Now()
	for i := 0; i < events; i++ {
		busy.Step()
	}
	samples["sim.kernel_ns_per_tick_busy"] = []float64{float64(time.Since(t0)) / float64(events)}

	idle := sim.NewKernel()
	for i := 0; i < 8; i++ {
		idle.Register(&gated{})
	}
	t0 = time.Now()
	for i := 0; i < events/100; i++ {
		idle.Run(1000)
	}
	samples["sim.kernel_ns_per_tick_gated"] = []float64{float64(time.Since(t0)) / float64(idle.Now())}
}

// probeSched times admission to completion of a no-op job on the fair
// scheduler and on the plain pool.
func probeSched(cfg config, samples map[string][]float64) {
	jobs := 20_000
	if cfg.quick {
		jobs = 500
	}
	sc := sched.New(sched.Options{Workers: 1})
	noop := func() {}
	submit := func() {
		wait, err := sc.Submit(sched.DefaultTenant, sched.Interactive, noop)
		if err == nil {
			wait()
		}
	}
	submit()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < jobs; i++ {
		submit()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	sc.Close()
	samples["sched.submit_dispatch_us"] = []float64{float64(d) / 1e3 / float64(jobs)}
	samples["sched.submit_allocs"] = []float64{float64(after.Mallocs-before.Mallocs) / float64(jobs)}

	pool := farm.NewPool(1, 4)
	t0 = time.Now()
	for i := 0; i < jobs; i++ {
		if wait, err := pool.Submit(noop); err == nil {
			wait()
		}
	}
	samples["farm.pool_submit_us"] = []float64{float64(time.Since(t0)) / 1e3 / float64(jobs)}
	pool.Close()
}

// probeOwner times rendezvous placement over the benchmark's two shards
// and over eight.
func probeOwner(inputs []input, samples map[string][]float64) {
	for _, p := range []struct {
		name string
		ids  []int
	}{{"shard.owner_ns", []int{0, 1}}, {"shard.owner8_ns", []int{0, 1, 2, 3, 4, 5, 6, 7}}} {
		const reps = 20
		sink := 0
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for i := range inputs {
				sink += shard.OwnerID(inputs[i].hash, p.ids)
			}
		}
		samples[p.name] = []float64{float64(time.Since(t0)) / float64(reps*len(inputs))}
		_ = sink
	}
}

// probeProxyHop measures what the router alone adds to a request: the
// same canned reply fetched through a router with its cache off, and
// from the stub backend directly. The difference is decode, hash,
// placement and the second HTTP hop.
func probeProxyHop(inputs []input, samples map[string][]float64) error {
	canned := []byte(`{"name":"stub","hash":"","model":"TL","cycles":1,"completed":true,"violations":0}`)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"ok":true,"workers":1}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		w.Write(canned)
	}))
	defer stub.Close()
	rt, err := shard.New(shard.Options{Backends: []string{stub.URL}})
	if err != nil {
		return err
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	n := len(inputs)
	if n > 1000 {
		n = 1000
	}
	times := func(url string) ([]float64, error) {
		cl := newClient(url)
		defer cl.close()
		out := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			status, _, body, err := cl.post("/run", inputs[i].body)
			d := time.Since(t0)
			if err != nil || status != 200 || !bytes.Equal(body, canned) {
				return nil, fmt.Errorf("proxy-hop probe: status %d, err %v", status, err)
			}
			out = append(out, float64(d)/1e3)
		}
		return out, nil
	}
	direct, err := times(stub.URL)
	if err != nil {
		return err
	}
	routed, err := times(front.URL)
	if err != nil {
		return err
	}
	samples["shard.proxy_hop_us"] = []float64{median(routed) - median(direct)}
	return nil
}

// probeSweep times grid expansion, the streaming walk and the sweep
// identity on the benchmark's own grid.
func probeSweep(cfg config, samples map[string][]float64) error {
	req, err := genSweep("probe", sweepCountBase, cfg.scaled(sweepCountsPerSecond, 1))
	if err != nil {
		return err
	}
	_, byName := service.ScenarioLibrary()
	grid, total, err := service.ResolveSweepGrid(req, byName, 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	variants, err := grid.Expand()
	if err != nil {
		return err
	}
	samples["sweep.expand_us_per_variant"] = []float64{float64(time.Since(t0)) / 1e3 / float64(len(variants))}
	walked := 0
	t0 = time.Now()
	err = grid.Walk(func(_ sweep.Variant, err error) error {
		walked++
		return err
	})
	if err != nil {
		return err
	}
	samples["sweep.walk_us_per_variant"] = []float64{float64(time.Since(t0)) / 1e3 / float64(walked)}
	if walked != len(variants) || len(variants) != total {
		return fmt.Errorf("sweep probe: walked %d, expanded %d, total %d", walked, len(variants), total)
	}
	const idReps = 50
	t0 = time.Now()
	for i := 0; i < idReps; i++ {
		if _, err := service.SweepID(req, byName); err != nil {
			return err
		}
	}
	samples["service.sweep_id_us"] = []float64{float64(time.Since(t0)) / 1e3 / idReps}
	return nil
}

// obsProbe times parsing and re-rendering a /metrics body the live
// system served.
func obsProbe(body []byte, samples map[string][]float64) error {
	const reps = 20
	var parse, write []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fams, err := obs.ParseText(bytes.NewReader(body))
		parse = append(parse, float64(time.Since(t0))/1e3)
		if err != nil {
			return fmt.Errorf("obs.ParseText: %w", err)
		}
		t0 = time.Now()
		err = obs.WriteFamilies(io.Discard, fams)
		write = append(write, float64(time.Since(t0))/1e3)
		if err != nil {
			return fmt.Errorf("obs.WriteFamilies: %w", err)
		}
	}
	samples["obs.parse_text_us"] = parse
	samples["obs.write_text_us"] = write
	samples["obs.metrics_bytes"] = []float64{float64(len(body))}
	return nil
}
