package core

import (
	"reflect"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// build assembles model m for workload w the way Run does.
func build(w Workload, m Model) platform.Model {
	return newModel(m, platform.Config{Params: w.Params, Gens: w.Gens()})
}

// TestSlicingDoesNotPerturbEitherModel is the property Options.Interrupt
// rests on: cutting a run into slices of any stride, through the one
// loop both models share, yields the single-shot result bit for bit —
// on every Table 1 scenario, on a run the cycle cap cuts short, and —
// at stride 1, where every cycle is a slice boundary — on the
// write-buffer-heavy multi-master speed workload, whose drain
// completions and arbitration rounds keep both TLM agenda slots busy.
func TestSlicingDoesNotPerturbEitherModel(t *testing.T) {
	ws := Table1Scenarios()
	capped := ws[0]
	capped.Name += " (capped)"
	capped.MaxCycles = 3001 // not a multiple of any stride below
	multi, _ := SpeedWorkloads(1000)
	ws = append(ws, capped, multi)
	never := func() bool { return false }
	for _, w := range ws {
		strides := []sim.Cycle{1, 7, 4096}
		if w.Name == multi.Name {
			strides = strides[:1]
		}
		for _, m := range []Model{TLM, RTL} {
			want, _ := runSliced(build(w, m), w.MaxCycles, interruptStride, nil)
			if want.Completed == (w.MaxCycles != 0) {
				t.Fatalf("%s %s: Completed=%v, the capped run must be the only incomplete one", w.Name, m, want.Completed)
			}
			for _, stride := range strides {
				got, interrupted := runSliced(build(w, m), w.MaxCycles, stride, never)
				if interrupted {
					t.Fatalf("%s %s stride %d: interrupted by a hook that never fires", w.Name, m, stride)
				}
				if got.Cycles != want.Cycles || got.Completed != want.Completed || !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Fatalf("%s %s stride %d: sliced run diverged from one-shot:\n got %d cycles completed=%v %+v\nwant %d cycles completed=%v %+v",
						w.Name, m, stride, got.Cycles, got.Completed, got.Stats, want.Cycles, want.Completed, want.Stats)
				}
			}
		}
	}
}

// TestRunLimitIsAbsoluteInBothModels pins the run contract: a second
// Run with a larger limit resumes and stops AT that cycle, not that
// many cycles later, and a limit the clock has already passed runs
// nothing and leaves the clock where it is.
func TestRunLimitIsAbsoluteInBothModels(t *testing.T) {
	w := Table1Scenarios()[0]
	for _, m := range []Model{TLM, RTL} {
		b := build(w, m)
		if res := b.Run(100); res.Completed {
			t.Fatalf("%s: scenario drained within 100 cycles; pick a longer one", m)
		}
		if b.Now() != 100 {
			t.Fatalf("%s: Now() = %d after Run(100)", m, b.Now())
		}
		b.Run(250)
		if b.Now() != 250 {
			t.Fatalf("%s: Now() = %d after Run(100) then Run(250), want 250 (absolute limit)", m, b.Now())
		}
		b.Run(100)
		if b.Now() != 250 {
			t.Fatalf("%s: Now() = %d after Run(250) then Run(100): time must not rewind", m, b.Now())
		}
	}
}

func TestParseModel(t *testing.T) {
	for name, want := range map[string]Model{"": TLM, "tl": TLM, "tlm": TLM, "rtl": RTL} {
		if got, err := ParseModel(name); err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"RTL", "rtll", "TL", "compare", " rtl", "pin"} {
		if _, err := ParseModel(name); err == nil {
			t.Errorf("ParseModel(%q) accepted an unknown model", name)
		}
	}
}
