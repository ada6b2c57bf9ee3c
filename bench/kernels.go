package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
)

const (
	// rtlPassesPerSecond and tlPassesPerRTL size a kernels round: an RTL
	// pass over the 14 workloads costs about 70 ms on the reference host
	// and a TL pass about 5 ms, so 1.4 RTL passes per second of -seconds
	// with 15 TL passes each split a round about evenly between the models.
	rtlPassesPerSecond = 1.4
	tlPassesPerRTL     = 15
	// kernelsCalSlice is the calibration slice after each RTL pass and
	// its TL passes (about 140 ms of simulation).
	kernelsCalSlice = 25 * time.Millisecond
)

// kernelsEnv runs the paper's experiment directly: no HTTP, no cache.
type kernelsEnv struct {
	cfg       config
	ws        []core.Workload
	table1    map[string]bool
	refCycles []uint64
	sum       string
	accErrPct float64
	cal       *calibrator
	spans     map[string][]float64 // per-run host microseconds of the traced round
}

// kernelWorkloads is Table 1 plus the speed pair.
func kernelWorkloads() (ws []core.Workload, table1 map[string]bool) {
	table1 = map[string]bool{}
	for _, w := range core.Table1Scenarios() {
		ws = append(ws, w)
		table1[w.Name] = true
	}
	multi, single := core.SpeedWorkloads(1000)
	return append(ws, multi, single), table1
}

// setupKernels fixes the run order from the seed and simulates every
// workload once on both models: the reference the rounds are checked
// against, the accuracy figure, and the statistics checksum.
func setupKernels(cfg config, _ string) (env, error) {
	ws, table1 := kernelWorkloads()
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	e := &kernelsEnv{cfg: cfg, ws: ws, table1: table1, refCycles: make([]uint64, len(ws)), cal: newCPUCalibrator()}

	var lines []string
	var errSum float64
	for i, w := range ws {
		tl := core.Run(w, core.TLM, core.Options{})
		rtl := core.Run(w, core.RTL, core.Options{})
		if !tl.Completed || !rtl.Completed {
			return nil, fmt.Errorf("%s did not drain (tl %v, rtl %v)", w.Name, tl.Completed, rtl.Completed)
		}
		e.refCycles[i] = uint64(rtl.Cycles)
		if table1[w.Name] {
			diff := float64(tl.Cycles) - float64(rtl.Cycles)
			if diff < 0 {
				diff = -diff
			}
			errSum += 100 * diff / float64(rtl.Cycles)
		}
		for _, r := range []core.RunResult{tl, rtl} {
			lines = append(lines, fmt.Sprintf("%s %s cycles=%d grants=%d wb_full_stalls=%d",
				w.Name, r.Model, r.Cycles, r.Stats.Grants, r.Stats.WBFullStalls))
		}
	}
	e.accErrPct = errSum / float64(len(table1))
	sort.Strings(lines) // the seed moves the run order, never the checksum
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	e.sum = fmt.Sprintf("%x", h.Sum(nil)[:8])
	return e, nil
}

// pass runs every workload once through model and returns the host
// time, the simulated cycles, and how many runs disagreed with the
// reference (TL must equal RTL cycle for cycle, so there is one
// reference for both).
func (e *kernelsEnv) pass(model core.Model, tr *tracer) (host time.Duration, cycles uint64, wrong int) {
	name := "core.run_tl"
	if model == core.RTL {
		name = "core.run_rtl"
	}
	for i, w := range e.ws {
		id := tr.begin(name, -1, i)
		t0 := time.Now()
		res := core.Run(w, model, core.Options{})
		d := time.Since(t0)
		tr.end(id)
		host += d
		cycles += uint64(res.Cycles)
		if !res.Completed || uint64(res.Cycles) != e.refCycles[i] {
			wrong++
		}
		if tr != nil {
			e.spans[name] = append(e.spans[name], float64(d)/1e3)
		}
	}
	return host, cycles, wrong
}

func (e *kernelsEnv) round(rc roundCfg) (roundOut, error) {
	rtlPasses := int(float64(e.cfg.scaled(rtlPassesPerSecond, 1)) * rc.frac)
	if rtlPasses < 1 {
		rtlPasses = 1
	}
	tlPasses := tlPassesPerRTL
	if e.cfg.quick {
		tlPasses = 2
	}
	if rc.tr != nil {
		e.spans = map[string][]float64{}
	}
	out := roundOut{also: map[string]float64{}}
	var tlHost, rtlHost time.Duration
	var tlCycles, rtlCycles uint64
	var rtlPassMs []float64
	for p := 0; p < rtlPasses; p++ {
		host, cycles, wrong := e.pass(core.RTL, rc.tr)
		rtlHost += host
		rtlCycles += cycles
		rtlPassMs = append(rtlPassMs, float64(host)/1e6)
		out.failed += wrong
		for q := 0; q < tlPasses; q++ {
			host, cycles, wrong := e.pass(core.TLM, rc.tr)
			tlHost += host
			tlCycles += cycles
			out.failed += wrong
		}
		e.cal.slice(kernelsCalSlice)
	}
	out.speed = e.cal.take()
	out.ops = rtlPasses * (1 + tlPasses) * len(e.ws)
	out.attempted = out.ops
	out.throughput = float64(tlCycles) / 1e3 / tlHost.Seconds()
	out.p50ms = median(rtlPassMs)
	out.also["rtl_kcycles_per_s"] = float64(rtlCycles) / 1e3 / rtlHost.Seconds()
	out.also["accuracy_err_pct"] = e.accErrPct
	return out, nil
}

// finish turns a non-zero Table 1 error into a failure: this
// repository's models agree cycle for cycle, so any difference is a bug.
func (e *kernelsEnv) finish() (int, int, []string, error) {
	failed := 0
	if e.accErrPct != 0 {
		failed = 1
	}
	return 1, failed, []string{fmt.Sprintf("accuracy_err_pct %.4f over %d Table 1 scenarios (paper: at most 3)", e.accErrPct, len(e.table1))}, nil
}

func (e *kernelsEnv) layers(samples map[string][]float64) error {
	for name, v := range e.spans {
		samples[name+"_us"] = v
	}
	return nil
}

func (e *kernelsEnv) config() map[string]any {
	return map[string]any{
		"workloads":              len(e.ws),
		"table1_scenarios":       len(e.table1),
		"speed_workload_txns":    1000,
		"rtl_passes_per_round":   e.cfg.scaled(rtlPassesPerSecond, 1),
		"tl_passes_per_rtl_pass": tlPassesPerRTL,
		"rounds_are_fixed_work":  true,
	}
}

func (e *kernelsEnv) checksum() string { return e.sum }
func (e *kernelsEnv) close()           {}
