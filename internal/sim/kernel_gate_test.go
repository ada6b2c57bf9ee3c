package sim

import (
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
// The gated variant sleeps whenever its input is low and relies on the
// register watch to wake it.
type listener struct {
	in      *Reg[bool]
	gated   bool
	evals   int
	pulses  []Cycle
	wakeLog []Cycle
}

func (l *listener) Name() string { return "listener" }
func (l *listener) Eval(now Cycle) {
	l.evals++
	if l.in.Get() {
		l.pulses = append(l.pulses, now)
	}
}
func (l *listener) Quiescent(now Cycle) (Cycle, bool) {
	if !l.gated {
		return 0, false
	}
	if l.in.Get() {
		return 0, false // pulse visible next cycle: stay awake to see it
	}
	return CycleMax, true
}

// alarm is purely time-driven: it records its evaluations and sleeps
// until a fixed next-work cycle.
type alarm struct {
	every Cycle
	seen  []Cycle
}

func (a *alarm) Name() string { return "alarm" }
func (a *alarm) Eval(now Cycle) {
	if now%a.every == 0 {
		a.seen = append(a.seen, now)
	}
}
func (a *alarm) Quiescent(now Cycle) (Cycle, bool) {
	next := (now/a.every + 1) * a.every
	return next, true
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
		l := &listener{in: out, gated: true}
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
	a := &alarm{every: 100}
	k.Register(a)
	n, err := k.Run(1000)
	if err != nil || n != 1000 {
		t.Fatalf("Run = %d, %v", n, err)
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
	a := &alarm{every: 5000}
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

// TestKernelSignalWakeDuringUpdate ensures a component that would gate
// itself at the end of a cycle stays awake when a watched register
// committed that same cycle (the value is only visible next cycle).
func TestKernelSignalWakeDuringUpdate(t *testing.T) {
	k := NewKernel()
	out := NewReg(false)
	p := &pulser{out: out, period: 2} // pulses at 0,2,4,...
	k.Bank().Add(out)
	l := &listener{in: out, gated: true}
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
	a := &alarm{every: 50}
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
