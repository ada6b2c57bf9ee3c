// Package core is the public facade of the AHB+ reproduction: it wires
// traffic masters, the AHB+ bus (transaction-level or pin-accurate),
// the DDR controller and the BI side-band into a runnable system, and
// provides the experiment harnesses that regenerate the paper's
// results — the Table 1 accuracy comparison and the TLM-vs-RTL
// simulation-speed measurement.
package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/farm"
	"repro/internal/platform"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/tlm"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Workload pairs a platform configuration with a reproducible master
// workload. Gens must return fresh generators on every call so the
// identical sequence can be replayed through both models.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Params is the platform configuration.
	Params config.Params
	// Gens builds the master traffic generators.
	Gens func() []traffic.Generator
	// MaxCycles caps each run (0 = default cap).
	MaxCycles sim.Cycle
}

// FromSpec validates and compiles a declarative workload spec into a
// runnable Workload. The returned workload's Gens builds fresh
// generators from the spec on every call, so both models replay the
// identical sequence — a spec-compiled workload is interchangeable
// with a closure-defined one.
func FromSpec(s spec.Spec) (Workload, error) {
	if err := s.Validate(); err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:   s.Name,
		Params: s.Params,
		Gens: func() []traffic.Generator {
			gens, err := s.Gens()
			if err != nil {
				// Unreachable: Validate vetted every descriptor above.
				panic(err)
			}
			return gens
		},
		MaxCycles: sim.Cycle(s.MaxCycles),
	}, nil
}

// MustFromSpec is FromSpec for static (trusted) specs; it panics on a
// spec that fails validation.
func MustFromSpec(s spec.Spec) Workload {
	w, err := FromSpec(s)
	if err != nil {
		panic(err)
	}
	return w
}

// Model selects the abstraction level.
type Model int

const (
	// TLM is the transaction-level model (the paper's contribution).
	TLM Model = iota
	// RTL is the pin-accurate signal-level model (the baseline).
	RTL
)

// String implements fmt.Stringer.
func (m Model) String() string {
	if m == TLM {
		return "TL"
	}
	return "RTL"
}

// ParseModel resolves a model selector as flags and requests spell it:
// "tl", "tlm" or "" (the default) for the TLM, "rtl" for the
// pin-accurate model. Anything else is an error, never a silent TLM.
func ParseModel(name string) (Model, error) {
	switch name {
	case "", "tl", "tlm":
		return TLM, nil
	case "rtl":
		return RTL, nil
	}
	return 0, fmt.Errorf("unknown model %q (want tl or rtl)", name)
}

// RunResult is the model-independent outcome of one run.
type RunResult struct {
	// Model is the abstraction level that produced the result.
	Model Model
	// Cycles is the simulated cycle count.
	Cycles sim.Cycle
	// Completed reports whether the workload drained.
	Completed bool
	// Stats is the bus profile.
	Stats *stats.Bus
	// Wall is the host wall-clock time of the run.
	Wall time.Duration
	// Violations is the number of protocol property violations.
	Violations uint64
	// Interrupted reports that Options.Interrupt cut the run short;
	// Cycles/Stats describe the partial run and Completed is false.
	Interrupted bool
}

// KCyclesPerSec returns the simulation speed in kilocycles per second
// of host time, the metric the paper reports (0.47 Kcycles/s RTL vs
// 166 Kcycles/s TL).
func (r RunResult) KCyclesPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Cycles) / 1000 / r.Wall.Seconds()
}

// Options adjusts a run.
type Options struct {
	// Tracer records per-transaction timelines (optional).
	Tracer *trace.Recorder
	// Checker collects property violations; nil installs a collecting
	// checker automatically.
	Checker *check.Checker
	// Waveform receives a VCD dump of the AHB signals (pin-accurate
	// model only).
	Waveform io.Writer
	// Interrupt, when non-nil, is polled between simulation slices
	// (every interruptStride cycles) and aborts the run when it
	// returns true — the hook a serving deadline hangs off. It must be
	// cheap and safe to call from the running goroutine. nil runs the
	// workload in one uninterruptible shot, byte-identical to builds
	// before the hook existed; a hook that never fires produces the
	// identical result too, because slicing a discrete-event
	// simulation at a cycle boundary does not perturb it.
	Interrupt func() bool
}

// interruptStride is how many simulated cycles run between Interrupt
// polls: small enough that a deadline cuts a hung workload within a
// fraction of a second of host time, large enough that the poll is
// free next to the simulation itself.
const interruptStride sim.Cycle = 1 << 18

// Run executes the workload on the chosen model.
func Run(w Workload, m Model, opt Options) RunResult {
	chk := opt.Checker
	if chk == nil {
		chk = &check.Checker{}
	}
	start := time.Now()
	b := newModel(m, platform.Config{
		Params: w.Params, Gens: w.Gens(), Checker: chk, Tracer: opt.Tracer, Waveform: opt.Waveform,
	})
	res, interrupted := runSliced(b, w.MaxCycles, interruptStride, opt.Interrupt)
	// The backing store is not part of the result: drop the TLM's
	// pending pattern writes unapplied and recycle the RTL's pages, so
	// back-to-back runs stop paying the page-allocation GC tax.
	b.Mem().Release()
	return RunResult{
		Model: m, Cycles: res.Cycles, Completed: res.Completed, Stats: res.Stats,
		Interrupted: interrupted, Wall: time.Since(start), Violations: chk.Total(),
	}
}

// newModel assembles the chosen model around the shared testbench.
func newModel(m Model, cfg platform.Config) platform.Model {
	switch m {
	case TLM:
		return tlm.New(cfg)
	case RTL:
		return rtl.New(cfg)
	}
	panic(fmt.Sprintf("core: unknown model %d", m))
}

// runSliced drives a model to max cycles (0 = the default cap), polling
// interrupt every stride cycles; without a hook it runs in one shot.
// Run's limit is absolute and a model resumes exactly where its
// previous slice stopped, so the sliced run visits the identical event
// sequence as the single-shot one — the slice boundary only decides
// when the hook is polled. interrupted reports that the hook cut the
// run short.
func runSliced(b platform.Model, max, stride sim.Cycle, interrupt func() bool) (res platform.Result, interrupted bool) {
	if max == 0 {
		max = platform.DefaultMaxCycles
	}
	if interrupt == nil {
		stride = max
	}
	for limit := stride; ; limit = limit.AddSat(stride) {
		if limit > max {
			limit = max
		}
		res = b.Run(limit)
		if res.Completed || limit >= max {
			return res, false
		}
		if interrupt() {
			return res, true
		}
	}
}

// AccuracyRow is one line of the Table 1 reproduction: the same
// workload through both models and the cycle-count difference.
type AccuracyRow struct {
	// Name is the scenario label.
	Name string
	// RTLCycles and TLMCycles are the simulated cycle counts.
	RTLCycles, TLMCycles sim.Cycle
	// ErrPct is |RTL-TLM| / RTL in percent.
	ErrPct float64
	// Completed reports whether both runs drained their workloads.
	Completed bool
}

// Compare runs the workload through both models — concurrently, on the
// run farm — and reports the accuracy row. The models share no mutable
// state (each Run builds its own platform and generators), so the
// parallel rows are bit-identical to sequential ones.
func Compare(w Workload) AccuracyRow {
	row, _ := CompareInterruptible(w, nil)
	return row
}

// CompareInterruptible is Compare with an interrupt hook applied to
// both model runs (each gets its own Options so nothing else is
// shared between the concurrent runs). The hook must be safe to call
// from two goroutines — a context check is. interrupted reports that
// either run was cut short; the row then describes partial runs and
// must not be treated as an accuracy result.
func CompareInterruptible(w Workload, interrupt func() bool) (row AccuracyRow, interrupted bool) {
	var r, t RunResult
	farm.Pair(
		func() { r = Run(w, RTL, Options{Interrupt: interrupt}) },
		func() { t = Run(w, TLM, Options{Interrupt: interrupt}) },
	)
	d := float64(r.Cycles) - float64(t.Cycles)
	if d < 0 {
		d = -d
	}
	row = AccuracyRow{
		Name:      w.Name,
		RTLCycles: r.Cycles,
		TLMCycles: t.Cycles,
		Completed: r.Completed && t.Completed,
	}
	if r.Cycles > 0 {
		row.ErrPct = 100 * d / float64(r.Cycles)
	}
	return row, r.Interrupted || t.Interrupted
}

// CompareAll runs Compare over the workloads and returns the rows plus
// the average error percentage (the paper's summary statistic). The
// scenarios execute on the run farm with the default worker count; use
// CompareAllN to bound or widen the pool.
func CompareAll(ws []Workload) ([]AccuracyRow, float64) {
	return CompareAllN(ws, 0)
}

// CompareAllN is CompareAll with an explicit farm worker bound
// (workers <= 0 selects one worker per CPU). Every scenario runs both
// models, so up to 2*workers simulations may be in flight.
func CompareAllN(ws []Workload, workers int) ([]AccuracyRow, float64) {
	rows := farm.Map(workers, len(ws), func(i int) AccuracyRow {
		return Compare(ws[i])
	})
	var sum float64
	for _, r := range rows {
		sum += r.ErrPct
	}
	if len(rows) == 0 {
		return rows, 0
	}
	return rows, sum / float64(len(rows))
}

// WriteAccuracyTable renders rows in the layout of the paper's Table 1
// (per-scenario RTL cycles, TL cycles, difference) plus the average.
func WriteAccuracyTable(w io.Writer, rows []AccuracyRow, avg float64) {
	fmt.Fprintf(w, "%-28s %12s %12s %8s\n", "scenario", "RTL cycles", "TL cycles", "diff %")
	for _, r := range rows {
		note := ""
		if !r.Completed {
			note = "  (incomplete)"
		}
		fmt.Fprintf(w, "%-28s %12d %12d %8.2f%s\n", r.Name, uint64(r.RTLCycles), uint64(r.TLMCycles), r.ErrPct, note)
	}
	fmt.Fprintf(w, "%-28s %12s %12s %8.2f\n", "average", "", "", avg)
}

// SpeedComparison is the paper's §4 speed experiment: the same
// workload timed on both models, plus the single-master TLM speed.
type SpeedComparison struct {
	// RTL and TLM are the multi-master results.
	RTL, TLM RunResult
	// SingleTLM is the one-master TLM result (the paper's 456
	// Kcycles/s configuration).
	SingleTLM RunResult
	// Speedup is TLM Kcycles/s over RTL Kcycles/s.
	Speedup float64
}

// MeasureSpeed times the workload on both models and the single-master
// workload on the TLM. The runs are deliberately sequential — this is
// the wall-clock experiment, and co-scheduling the models would
// contaminate the Kcycles/sec readings.
func MeasureSpeed(multi Workload, single Workload) SpeedComparison {
	sc := SpeedComparison{
		RTL:       Run(multi, RTL, Options{}),
		TLM:       Run(multi, TLM, Options{}),
		SingleTLM: Run(single, TLM, Options{}),
	}
	if r := sc.RTL.KCyclesPerSec(); r > 0 {
		sc.Speedup = sc.TLM.KCyclesPerSec() / r
	}
	return sc
}

// WriteSpeedReport renders the speed comparison.
func WriteSpeedReport(w io.Writer, sc SpeedComparison) {
	fmt.Fprintf(w, "%-22s %12s %12s %14s\n", "model", "cycles", "wall", "Kcycles/sec")
	for _, r := range []struct {
		name string
		res  RunResult
	}{
		{"RTL (pin-accurate)", sc.RTL},
		{"TL (multi-master)", sc.TLM},
		{"TL (single master)", sc.SingleTLM},
	} {
		fmt.Fprintf(w, "%-22s %12d %12s %14.1f\n",
			r.name, uint64(r.res.Cycles), r.res.Wall.Round(time.Microsecond), r.res.KCyclesPerSec())
	}
	fmt.Fprintf(w, "TL speedup over RTL: %.0fx\n", sc.Speedup)
}
