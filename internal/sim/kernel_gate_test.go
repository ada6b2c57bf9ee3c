package sim

import (
	"fmt"
	"testing"
)

// pulser drives a register high for one cycle every period cycles; it
// never sleeps.
type pulser struct {
	out    *Reg[bool]
	period Cycle
}

func (p *pulser) Name() string { return "pulser" }
func (p *pulser) Eval(now Cycle) {
	high := now%p.period == 0
	if p.out.Get() != high {
		p.out.Set(high)
	}
}

// listener counts the cycles it evaluated and the pulses it observed.
// It sleeps whenever its input is low and relies on the register watch
// to wake it: a pulse committed in the cycle it asks drops the request.
type listener struct {
	k      *Kernel
	in     *Reg[bool]
	evals  int
	pulses []Cycle
}

func (l *listener) Name() string { return "listener" }
func (l *listener) Eval(now Cycle) {
	l.evals++
	if l.in.Get() {
		l.pulses = append(l.pulses, now)
	} else {
		l.k.Sleep(CycleMax)
	}
}

// alarm is purely time-driven: it records its evaluations and sleeps
// until a fixed next-work cycle.
type alarm struct {
	k     *Kernel
	every Cycle
	seen  []Cycle
}

func (a *alarm) Name() string { return "alarm" }
func (a *alarm) Eval(now Cycle) {
	if now%a.every == 0 {
		a.seen = append(a.seen, now)
	}
	a.k.Sleep((now/a.every + 1) * a.every)
}

// probe logs the cycles it is evaluated on and runs a test's script in
// each Eval.
type probe struct {
	ran []Cycle
	on  func(now Cycle)
}

func (p *probe) Name() string { return "probe" }
func (p *probe) Eval(now Cycle) {
	p.ran = append(p.ran, now)
	if p.on != nil {
		p.on(now)
	}
}

// cycles returns the cycles from..to-1.
func cycles(from, to Cycle) []Cycle {
	var cs []Cycle
	for c := from; c < to; c++ {
		cs = append(cs, c)
	}
	return cs
}

// wantCycles fails t unless got equals want.
func wantCycles(t *testing.T, what string, got, want []Cycle) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: %v, want %v", what, got, want)
		}
	}
}

// TestKernelGatingObservationEquivalence runs the same pulser/listener
// pair on a gated and an ungated kernel and requires identical
// observations — the core clock-gating contract.
func TestKernelGatingObservationEquivalence(t *testing.T) {
	build := func(disable bool) (*Kernel, *listener) {
		k := NewKernel()
		k.GateDisabled = disable
		out := NewReg(false)
		p := &pulser{out: out, period: 37}
		k.Bank().Add(out)
		l := &listener{k: k, in: out}
		k.Register(p)
		k.Register(l)
		out.Notify(k.Waker(l))
		return k, l
	}
	kGated, lGated := build(false)
	kPlain, lPlain := build(true)
	kGated.Run(500)
	kPlain.Run(500)
	if kGated.Now() != kPlain.Now() {
		t.Fatalf("cycle counts diverged: %v vs %v", kGated.Now(), kPlain.Now())
	}
	if len(lGated.pulses) != len(lPlain.pulses) {
		t.Fatalf("pulse counts diverged: %v vs %v", lGated.pulses, lPlain.pulses)
	}
	for i := range lGated.pulses {
		if lGated.pulses[i] != lPlain.pulses[i] {
			t.Fatalf("pulse cycles diverged: %v vs %v", lGated.pulses, lPlain.pulses)
		}
	}
	if lGated.evals >= lPlain.evals {
		t.Fatalf("gating saved no evaluations: %d vs %d", lGated.evals, lPlain.evals)
	}
}

// TestKernelTimedWake checks that a sleeping component wakes exactly at
// its requested cycle, including across all-asleep fast-forwards.
func TestKernelTimedWake(t *testing.T) {
	k := NewKernel()
	a := &alarm{k: k, every: 100}
	k.Register(a)
	if n := k.Run(1000); n != 1000 {
		t.Fatalf("Run = %d", n)
	}
	want := []Cycle{0, 100, 200, 300, 400, 500, 600, 700, 800, 900}
	if len(a.seen) != len(want) {
		t.Fatalf("alarm fired at %v, want %v", a.seen, want)
	}
	for i := range want {
		if a.seen[i] != want[i] {
			t.Fatalf("alarm fired at %v, want %v", a.seen, want)
		}
	}
}

// TestKernelFastForwardRunUntil checks that the predicate contract
// (pure observation, constant while everything sleeps) holds across a
// fast-forwarded stretch.
func TestKernelFastForwardRunUntil(t *testing.T) {
	k := NewKernel()
	a := &alarm{k: k, every: 5000}
	k.Register(a)
	n, ok := k.RunUntil(func() bool { return len(a.seen) >= 2 }, 100000)
	if !ok {
		t.Fatal("predicate never satisfied")
	}
	if n != 5001 {
		// The second firing happens at cycle 5000; RunUntil counts the
		// step that completed it.
		t.Fatalf("RunUntil simulated %d cycles, want 5001", n)
	}
}

// TestKernelSignalWakeDuringUpdate ensures a component that asks to
// sleep in a cycle stays awake when a watched register committed that
// same cycle (the value is only visible next cycle).
func TestKernelSignalWakeDuringUpdate(t *testing.T) {
	k := NewKernel()
	out := NewReg(false)
	p := &pulser{out: out, period: 2} // pulses at 0,2,4,...
	k.Bank().Add(out)
	l := &listener{k: k, in: out}
	k.Register(p)
	k.Register(l)
	out.Notify(k.Waker(l))
	k.Run(10)
	// Pulses commit at the pulse cycle and are visible one cycle later:
	// the listener must observe every odd cycle.
	want := []Cycle{1, 3, 5, 7, 9}
	if len(l.pulses) != len(want) {
		t.Fatalf("observed %v, want %v", l.pulses, want)
	}
	for i := range want {
		if l.pulses[i] != want[i] {
			t.Fatalf("observed %v, want %v", l.pulses, want)
		}
	}
}

func TestKernelSleepingCount(t *testing.T) {
	k := NewKernel()
	a := &alarm{k: k, every: 50}
	k.Register(a)
	if k.Sleeping() != 0 {
		t.Fatal("nothing should sleep before the first step")
	}
	k.Step()
	if k.Sleeping() != 1 {
		t.Fatalf("Sleeping = %d after first step", k.Sleeping())
	}
}

func TestKernelWakerUnregisteredPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Waker(&alarm{every: 1})
}

// TestSleepCancelledByWatchedCommit: a request made in a cycle where a
// watched register commits is dropped, because the component has not
// yet observed the new value; without the commit the same request
// holds.
func TestSleepCancelledByWatchedCommit(t *testing.T) {
	for _, set := range []bool{false, true} {
		k := NewKernel()
		r := NewReg(0)
		k.Bank().Add(r)
		d := &probe{on: func(now Cycle) {
			if set && now == 3 {
				r.Set(1)
			}
		}}
		l := &probe{on: func(now Cycle) {
			if now == 3 {
				k.Sleep(CycleMax)
			}
		}}
		k.Register(d)
		k.Register(l)
		r.Notify(k.Waker(l))
		k.Run(6)
		want := cycles(0, 4)
		if set {
			want = cycles(0, 6)
		}
		wantCycles(t, fmt.Sprintf("watched register Set at 3: %v: listener ran", set), l.ran, want)
	}
}

// TestSleepTooSoonIsIgnored: a wake cycle at or before the next one is
// no reason to sleep; the component stays in the awake set.
func TestSleepTooSoonIsIgnored(t *testing.T) {
	k := NewKernel()
	c := &probe{on: func(now Cycle) { k.Sleep(now + Cycle(now%2)) }}
	k.Register(c)
	for range 6 {
		k.Step()
		if k.Sleeping() != 0 {
			t.Fatalf("cycle %v: a request for now or now+1 put the component to sleep", k.Now()-1)
		}
	}
	wantCycles(t, "ran", c.ran, cycles(0, 6))
}

// TestSleepUnderGateDisabledIsNoOp: with gating off every component
// runs every cycle, whatever it asks.
func TestSleepUnderGateDisabledIsNoOp(t *testing.T) {
	k := NewKernel()
	k.GateDisabled = true
	c := &probe{on: func(now Cycle) { k.Sleep(CycleMax) }}
	k.Register(c)
	k.Run(5)
	if k.Sleeping() != 0 {
		t.Fatalf("Sleeping = %d with gating disabled", k.Sleeping())
	}
	wantCycles(t, "ran", c.ran, cycles(0, 5))
}

// TestSleepAndWakeInOneCycleStaysAwake: a Waker fired in the cycle a
// component asks to sleep, before or after the request, keeps it
// awake.
func TestSleepAndWakeInOneCycleStaysAwake(t *testing.T) {
	for _, wakeFirst := range []bool{false, true} {
		k := NewKernel()
		var w *Waker
		c := &probe{on: func(now Cycle) {
			if now == 2 {
				k.Sleep(CycleMax)
			}
		}}
		waker := &probe{on: func(now Cycle) {
			if now == 2 {
				w.Wake()
			}
		}}
		if wakeFirst {
			k.Register(waker)
			k.Register(c)
		} else {
			k.Register(c)
			k.Register(waker)
		}
		w = k.Waker(c)
		k.Run(5)
		wantCycles(t, fmt.Sprintf("wake first %v: ran", wakeFirst), c.ran, cycles(0, 5))
	}
}

// TestTimedWakeFastForwardsWhenAllSleep: with every component asleep on
// a timed wake the kernel steps only the wake cycles, and counts only
// those as work.
func TestTimedWakeFastForwardsWhenAllSleep(t *testing.T) {
	k := NewKernel()
	a := &alarm{k: k, every: 100}
	b := &alarm{k: k, every: 250}
	k.Register(a)
	k.Register(b)
	if n := k.Run(1000); n != 1000 {
		t.Fatalf("Run(1000) simulated %d cycles", n)
	}
	// Wake cycles: 0 (both), 100, 200, 250, 300, 400, 500 (both), 600,
	// 700, 750, 800, 900.
	if k.Steps() != 12 || k.Evals() != 14 {
		t.Fatalf("stepped %d cycles and made %d Evals, want 12 and 14", k.Steps(), k.Evals())
	}
	wantCycles(t, "fast alarm", a.seen, []Cycle{0, 100, 200, 300, 400, 500, 600, 700, 800, 900})
	wantCycles(t, "slow alarm", b.seen, []Cycle{0, 250, 500, 750})
}

// TestSleepOutsideEvalPanics: only an Eval can name the component that
// asks.
func TestSleepOutsideEvalPanics(t *testing.T) {
	k := NewKernel()
	k.Register(&probe{})
	k.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Sleep(CycleMax)
}
