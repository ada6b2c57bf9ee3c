package core

import (
	"os"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/platform"
	"repro/internal/rtl"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

func smallWorkload(masters int) Workload {
	p := config.Default(masters)
	p.DDR = p.DDR.NoRefresh()
	return Workload{
		Name:   "small",
		Params: p,
		Gens: func() []traffic.Generator {
			gens := []traffic.Generator{
				&traffic.Sequential{Base: 0, Beats: 4, Count: 20},
			}
			for i := 1; i < masters; i++ {
				gens = append(gens, &traffic.Random{
					Seed: int64(i), Base: uint32(i) << 19, WindowBytes: 1 << 16,
					MaxBeats: 8, WriteFrac: 0.4, Count: 20,
				})
			}
			return gens
		},
	}
}

func TestRunBothModels(t *testing.T) {
	w := smallWorkload(2)
	r := Run(w, RTL, Options{})
	if !r.Completed || r.Cycles == 0 {
		t.Fatalf("RTL result %+v", r)
	}
	m := Run(w, TLM, Options{})
	if !m.Completed || m.Cycles == 0 {
		t.Fatalf("TLM result %+v", m)
	}
	if r.Violations != 0 || m.Violations != 0 {
		t.Fatalf("violations rtl=%d tlm=%d", r.Violations, m.Violations)
	}
	if r.Model.String() != "RTL" || m.Model.String() != "TL" {
		t.Fatal("model names")
	}
}

func TestCompareProducesSmallError(t *testing.T) {
	row := Compare(smallWorkload(2))
	if !row.Completed {
		t.Fatal("comparison incomplete")
	}
	if row.ErrPct > 5 {
		t.Fatalf("error %.2f%% too large (rtl=%d tlm=%d)", row.ErrPct, row.RTLCycles, row.TLMCycles)
	}
}

// TestTable1AccuracyBelow3Percent is the reproduction of the paper's
// headline accuracy claim: "the average accuracy difference is below
// 3%". The full Table 1 scenario set runs through both models.
func TestTable1AccuracyBelow3Percent(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 sweep in -short mode")
	}
	rows, avg := CompareAll(Table1Scenarios())
	for _, r := range rows {
		if !r.Completed {
			t.Errorf("%s: incomplete", r.Name)
		}
		t.Logf("%-28s RTL=%8d TL=%8d diff=%5.2f%%", r.Name, r.RTLCycles, r.TLMCycles, r.ErrPct)
		if r.ErrPct > 10 {
			t.Errorf("%s: per-scenario error %.2f%% exceeds 10%%", r.Name, r.ErrPct)
		}
	}
	t.Logf("average error: %.2f%%", avg)
	if avg >= 3 {
		t.Errorf("average accuracy difference %.2f%%, paper reports < 3%%", avg)
	}
}

// TestSpeedTLMFasterThanRTL compares the best of three wall-clock
// samples per model: one sample can land on a busy stretch of the host
// (other test binaries share the CPUs), which slows a run down but never
// speeds one up.
func TestSpeedTLMFasterThanRTL(t *testing.T) {
	multi, single := SpeedWorkloads(300)
	sc := MeasureSpeed(multi, single)
	for range 2 {
		sc.KeepFaster(MeasureSpeed(multi, single))
	}
	if !sc.RTL.Completed || !sc.TLM.Completed || !sc.SingleTLM.Completed {
		t.Fatal("speed runs incomplete")
	}
	if sc.Speedup() <= 1 {
		t.Fatalf("TLM should be faster than RTL, speedup=%.2f", sc.Speedup())
	}
	var b strings.Builder
	WriteSpeedReport(&b, sc)
	if !strings.Contains(b.String(), "speedup") {
		t.Fatalf("report: %s", b.String())
	}
}

// TestRTLWorkOverKernelsSet pins the pin-accurate model's work over
// the benchmark's kernels set (Table 1 plus the speed pair): the cycles
// its kernel stepped and the Eval calls it made. How the kernel finds
// its sleepers may change; which component evaluates on which cycle
// may not, so neither total may move.
func TestRTLWorkOverKernelsSet(t *testing.T) {
	multi, single := SpeedWorkloads(1000)
	var steps, evals uint64
	for _, w := range append(Table1Scenarios(), multi, single) {
		b := rtl.New(platform.Config{Params: w.Params, Gens: w.Gens(), Checker: &check.Checker{}})
		if res := b.Run(w.MaxCycles); !res.Completed {
			t.Fatalf("%s did not drain", w.Name)
		}
		s, e := b.Work()
		steps += s
		evals += e
	}
	if steps != 179_145 || evals != 814_993 {
		t.Fatalf("RTL stepped %d cycles and made %d Evals over the kernels set, want 179,145 and 814,993", steps, evals)
	}
}

func TestWriteAccuracyTable(t *testing.T) {
	rows := []AccuracyRow{
		{Name: "x", RTLCycles: 100, TLMCycles: 98, ErrPct: 2, Completed: true},
		{Name: "y", RTLCycles: 100, TLMCycles: 100, Completed: false},
	}
	var b strings.Builder
	WriteAccuracyTable(&b, rows, 1.0)
	out := b.String()
	for _, want := range []string{"RTL cycles", "x", "average", "incomplete"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestScenarioDefinitionsAreReplayable(t *testing.T) {
	for _, w := range Table1Scenarios() {
		if err := w.Params.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		a, b := w.Gens(), w.Gens()
		if len(a) != len(b) || len(a) != len(w.Params.Masters) {
			t.Errorf("%s: generator count mismatch", w.Name)
		}
		// Fresh factories must not share state.
		ra, _ := a[0].Next(0)
		rb, _ := b[0].Next(0)
		if ra != rb {
			t.Errorf("%s: generator factories share state", w.Name)
		}
	}
}

func TestInterleavingWorkloadTargetsDistinctBanks(t *testing.T) {
	w := InterleavingWorkload(true, 10)
	gens := w.Gens()
	r0, _ := gens[0].Next(0)
	r1, _ := gens[1].Next(0)
	b0, _, _ := w.Params.AddrMap.Decode(r0.Addr)
	b1, _, _ := w.Params.AddrMap.Decode(r1.Addr)
	if b0 == b1 {
		t.Fatalf("interleaving workload masters share bank %d", b0)
	}
}

func TestKCyclesPerSecZeroWall(t *testing.T) {
	if (RunResult{}).KCyclesPerSec() != 0 {
		t.Fatal("zero wall should give zero speed")
	}
}

// TestWideBusWalkersDriveLegalBursts runs the example spec service
// spec, and a copy whose first master is bursty, on 8- and 16-byte
// buses: every generator sizes its bursts and strides in the
// platform's beats, so neither model sees a protocol violation, and
// the two models agree on the cycle count.
func TestWideBusWalkersDriveLegalBursts(t *testing.T) {
	raw, err := os.ReadFile("../../examples/spec_service/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	example, err := spec.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	bursty := example.Clone()
	bursty.Masters[0] = spec.GenSpec{Kind: spec.KindBursty, Beats: 8, BurstTxns: 4, IdleGap: 100, Count: 400}
	for _, base := range []spec.Spec{example, bursty} {
		for _, bus := range []int{8, 16} {
			s := base.Clone()
			if err := sweep.Apply(&s, sweep.ParamBusBytes, bus); err != nil {
				t.Fatal(err)
			}
			w, err := FromSpec(s)
			if err != nil {
				t.Fatal(err)
			}
			tl, rtl := Run(w, TLM, Options{}), Run(w, RTL, Options{})
			if tl.Violations != 0 || rtl.Violations != 0 || tl.Cycles != rtl.Cycles {
				t.Fatalf("%s master 0 %s on a %d-byte bus: %d TL and %d RTL violations, %d TL vs %d RTL cycles",
					s.Name, s.Masters[0].Kind, bus, tl.Violations, rtl.Violations, tl.Cycles, rtl.Cycles)
			}
		}
	}
}
