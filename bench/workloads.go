package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloadDef names one workload and says what the two generic
// end-to-end metrics count on it. The names are fixed: issues cite them.
type workloadDef struct {
	name         string
	why          string
	throughputOf string
	p50Of        string
	// setupReps is how often set-up is repeated for a steady setup_s
	// median; the last one is kept for the rounds.
	setupReps int
	setup     func(cfg config, tmp string) (env, error)
}

var workloads = []workloadDef{
	{
		name:         "kernels",
		why:          "the paper's own experiment: core.Run on Table 1 and the speed pair through TLM and RTL, no serving code at all",
		throughputOf: "simulated TL Kcycles per host second (the paper's Kcycles/s)",
		p50Of:        "one RTL pass over Table 1 and the speed pair",
		setupReps:    5,
		setup:        setupKernels,
	},
	{
		name:         "run_cold",
		why:          "one worker, every POST /run a never-seen spec: the full miss path, where non-kernel overhead shows",
		throughputOf: "200 replies per second",
		p50Of:        "one POST /run that misses every cache",
		setupReps:    2,
		setup:        setupRunCold,
	},
	{
		name:         "run_warm",
		why:          "router and 2 workers, requests drawn from a working set larger than every cache: zero simulation, all cache tiers",
		throughputOf: "200 replies per second",
		p50Of:        "one POST /run answered from a cache tier",
		setupReps:    1,
		setup:        setupRunWarm,
	},
	{
		name:         "sweep_cluster",
		why:          "a design-space grid through the router, cold then repeated: per-variant dispatch, steals, manifests, analysis",
		throughputOf: "cold sweep rows per second, request sent to terminal done row",
		p50Of:        "the repeat of the same sweep, request sent to terminal done row",
		setupReps:    3,
		setup:        setupSweep,
	},
}

// setupCalSlice is the calibration slice before and after each set-up.
const setupCalSlice = 40 * time.Millisecond

// roundCfg tells a workload how much to do in one round.
type roundCfg struct {
	dur  time.Duration // fixed-duration workloads measure this long
	frac float64       // fixed-work workloads do this share of a full round
	tr   *tracer       // nil unless this is the traced round
}

// roundOut is what one round measured.
type roundOut struct {
	throughput float64
	p50ms      float64
	ops        int
	attempted  int
	failed     int
	// speed is the host's speed during the round as a share of the
	// reference speed, from the calibration slices (see calib.go).
	speed float64
	// also carries the round's other user-visible numbers (the RTL speed
	// on kernels, the warm rate and analyze time on sweep_cluster, the
	// cache mix), printed beside the end-to-end metrics.
	also map[string]float64
}

// env is a set-up workload.
type env interface {
	round(rc roundCfg) (roundOut, error)
	// finish runs the output checks that need reference simulations,
	// outside every timed section.
	finish() (attempted, failed int, notes []string, err error)
	// layers adds the per-layer samples the traced round collected.
	layers(samples map[string][]float64) error
	config() map[string]any
	checksum() string
	close()
}

func hostFacts() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// runWorkload sets a workload up, runs its rounds and checks, and
// returns the record.
func runWorkload(def workloadDef, cfg config) (rec record, err error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return rec, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(tmp)

	rec = record{
		Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: hostFacts(), Metrics: map[string]metric{}, Also: map[string]metric{},
	}
	samples := map[string][]float64{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		if err := probeLayers(cfg, tmp, tr, samples); err != nil {
			return rec, fmt.Errorf("layer probes: %w", err)
		}
	}

	// Set-up is timed like a round: calibration slices on both sides put
	// setup_s at the reference host speed too.
	var e env
	var setups, rawSetups []float64
	cal := newCPUCalibrator()
	for i := 0; i < def.setupReps; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		cal.slice(setupCalSlice)
		t0 := time.Now()
		if e, err = def.setup(cfg, tmp); err != nil {
			return rec, fmt.Errorf("set-up: %w", err)
		}
		raw := time.Since(t0).Seconds()
		cal.slice(setupCalSlice)
		setups = append(setups, raw*cal.take())
		rawSetups = append(rawSetups, raw)
		if cfg.trace {
			break // a traced run reports no setup_s
		}
	}
	rec.Also["raw_setup_s"] = summarize("s", rawSetups, 0)
	defer e.close()
	rec.Config = e.config()
	rec.Config["clients"] = cfg.clients
	rec.Config["rounds"] = measuredRounds

	count := func(out roundOut) {
		rec.Attempted += out.attempted
		rec.Failed += out.failed
	}
	warm, err := e.round(roundCfg{dur: cfg.roundDur() / 2, frac: 0.5})
	if err != nil {
		return rec, fmt.Errorf("warm-up round: %w", err)
	}
	count(warm)

	if cfg.trace {
		err = tracedRounds(def, cfg, e, tr, samples, &rec, count)
	} else {
		err = measuredRoundsRun(cfg, e, setups, &rec, count)
	}
	if err != nil {
		return rec, err
	}

	att, failed, notes, err := e.finish()
	if err != nil {
		return rec, fmt.Errorf("output checks: %w", err)
	}
	rec.Attempted += att
	rec.Failed += failed
	rec.Notes = append(rec.Notes, notes...)
	rec.Checksum = e.checksum()
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}

// measuredRoundsRun is the untraced run: five rounds, a collection
// between them, medians over the rounds.
func measuredRoundsRun(cfg config, e env, setups []float64, rec *record, count func(roundOut)) error {
	var thr, p50 []float64
	ops := 0
	also := map[string][]float64{}
	for r := 0; r < measuredRounds; r++ {
		runtime.GC()
		out, err := e.round(roundCfg{dur: cfg.roundDur(), frac: 1})
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		count(out)
		thr = append(thr, out.throughput/out.speed)
		p50 = append(p50, out.p50ms*out.speed)
		ops += out.ops
		out.also["raw_throughput_per_s"] = out.throughput
		out.also["raw_p50_ms"] = out.p50ms
		out.also["host_speed_share"] = out.speed
		for k, v := range out.also {
			also[k] = append(also[k], v)
		}
	}
	rec.Metrics["setup_s"] = summarize("s", setups, 0)
	rec.Metrics["throughput_per_s"] = summarize("1/s", thr, ops)
	rec.Metrics["p50_ms"] = summarize("ms", p50, ops)
	for k, v := range also {
		rec.Also[k] = summarize(alsoUnit(k), v, 0)
	}
	return nil
}

// alsoUnit reads the unit off an "also" name's suffix.
func alsoUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_share"):
		return "share"
	case strings.HasSuffix(name, "_skew"):
		return "x"
	}
	return "count"
}

// tracedRounds is the traced run: one untraced and one traced round,
// whose difference is the tracing overhead, then the layer metrics.
func tracedRounds(def workloadDef, cfg config, e env, tr *tracer, samples map[string][]float64, rec *record, count func(roundOut)) error {
	runtime.GC()
	plain, err := e.round(roundCfg{dur: cfg.roundDur(), frac: 1})
	if err != nil {
		return fmt.Errorf("untraced round: %w", err)
	}
	count(plain)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced, err := e.round(roundCfg{dur: cfg.roundDur(), frac: 1, tr: tr})
	if err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	runtime.ReadMemStats(&after)
	count(traced)
	if err := e.layers(samples); err != nil {
		return fmt.Errorf("layer metrics: %w", err)
	}
	if plain.throughput > 0 {
		p, t := plain.throughput/plain.speed, traced.throughput/traced.speed
		samples["trace.overhead_pct"] = []float64{100 * (p - t) / p}
	}
	if traced.ops > 0 {
		// Whole process: the generator's allocations are in here too.
		samples["runtime.mallocs_per_request"] = []float64{float64(after.Mallocs-before.Mallocs) / float64(traced.ops)}
	}
	samples["runtime.peak_rss_mb"] = []float64{peakRSSMB()}
	for _, d := range perLayer {
		rec.Metrics[d.name] = summarize(d.unit, samples[d.name], 0)
	}
	path, err := tr.write(cfg.outDir, def.name, cfg.seed)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if self := tr.selfTimes()["replay.request"]; len(self) > 0 {
		rec.Notes = append(rec.Notes, fmt.Sprintf("replayed request: median %.1f us, of which %.1f us inside no layer span (self time)",
			median(samples["replay.request_us"]), median(self)))
	}
	rec.Notes = append(rec.Notes,
		fmt.Sprintf("trace written to %s", path),
		fmt.Sprintf("tracing overhead: untraced round %.1f/s, traced round %.1f/s", plain.throughput, traced.throughput))
	return nil
}

// peakRSSMB reads the process's peak resident set from /proc (0 where
// there is none).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
