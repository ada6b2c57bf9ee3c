package sim

import (
	"errors"
	"fmt"
)

// Component is a hardware block simulated by the two-phase cycle-based
// Kernel. On every cycle the kernel first calls Eval on every component
// (phase 1: compute next state from the current, stable signal values)
// and then Update on every component (phase 2: commit next state so it
// becomes visible in the following cycle). This is the classic two-step
// cycle-based scheme: no delta cycles, no event sensitivity lists.
type Component interface {
	// Name identifies the component in error messages and traces.
	Name() string
	// Eval computes the component's next state from currently visible
	// signal values. It must not make its own writes visible to other
	// components within the same cycle.
	Eval(now Cycle)
	// Update commits the state computed by Eval.
	Update(now Cycle)
}

// Sleeper is an optional Component extension enabling clock gating: a
// component that reports itself quiescent is skipped (neither Eval nor
// Update runs) until either its reported wake cycle arrives or a
// watched register (see Reg.Notify) commits a new value. Quiescence
// must be conservative: a sleeping component is promised bit-identical
// behaviour to an always-evaluated one, so a component may only report
// quiescent when, absent a watched-signal change, every future Eval up
// to the wake cycle would be a no-op.
type Sleeper interface {
	Component
	// Quiescent is polled after the Update phase. ok reports whether
	// the component may be gated; wakeAt is the first future cycle at
	// which it has time-driven work again (CycleMax when only a watched
	// signal can wake it).
	Quiescent(now Cycle) (wakeAt Cycle, ok bool)
}

// kcomp is a registered component plus its gating state.
type kcomp struct {
	c        Component
	sl       Sleeper // nil when the component cannot be gated
	asleep   bool
	wakeAt   Cycle
	signaled Cycle // last cycle a watched register committed a change
}

// Kernel is the two-phase cycle-based simulation kernel used by the
// pin-accurate model. Components are evaluated in registration order in
// phase 1 and committed in the same order in phase 2; because phase-1
// reads only see phase-2 (committed) values, registration order does not
// affect results. Components implementing Sleeper are clock gated while
// quiescent, and when every registered component sleeps the kernel
// fast-forwards the cycle counter to the earliest wake — the cycle
// count and all visible state remain exactly as if every cycle had been
// stepped.
type Kernel struct {
	// GateDisabled turns clock gating off: every component is evaluated
	// every cycle, exactly as the pre-gating kernel behaved. Gating is
	// required to be observation-equivalent, so this exists for
	// differential tests and debugging, not configuration.
	GateDisabled bool

	comps    []kcomp
	now      Cycle
	stopped  bool
	stopMsg  string
	sleeping int
	gateable int
}

// ErrStopped is returned by Run when a component requested a stop via
// Kernel.Stop before the requested cycle count elapsed.
var ErrStopped = errors.New("sim: stopped by component request")

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Register adds a component to the kernel. Registering the same
// component twice is a programming error and panics.
func (k *Kernel) Register(c Component) {
	for i := range k.comps {
		if k.comps[i].c == c {
			panic(fmt.Sprintf("sim: component %q registered twice", c.Name()))
		}
	}
	kc := kcomp{c: c, signaled: CycleMax}
	if sl, ok := c.(Sleeper); ok {
		kc.sl = sl
		k.gateable++
	}
	k.comps = append(k.comps, kc)
}

// Waker returns a wake handle for a registered component, for wiring to
// watched registers via Reg.Notify. It panics if c is not registered.
func (k *Kernel) Waker(c Component) *Waker {
	for i := range k.comps {
		if k.comps[i].c == c {
			return &Waker{k: k, idx: i}
		}
	}
	panic(fmt.Sprintf("sim: waker for unregistered component %q", c.Name()))
}

// Waker wakes one gated component when a watched register commits.
type Waker struct {
	k   *Kernel
	idx int
}

// Wake marks the component's watched input as changed this cycle: a
// sleeping component resumes evaluation next cycle, and an awake one is
// prevented from gating itself at the end of this cycle (it has not yet
// observed the new value).
func (w *Waker) Wake() {
	cs := &w.k.comps[w.idx]
	cs.signaled = w.k.now
	if cs.asleep {
		cs.asleep = false
		w.k.sleeping--
	}
}

// Sleeping returns the number of currently gated components.
func (k *Kernel) Sleeping() int { return k.sleeping }

// Now returns the current simulation cycle. During Eval/Update callbacks
// it is the cycle being simulated.
func (k *Kernel) Now() Cycle { return k.now }

// Stop requests that the simulation stop after the current cycle
// completes (both phases still run for every component). The message is
// reported through StopReason.
func (k *Kernel) Stop(msg string) {
	k.stopped = true
	k.stopMsg = msg
}

// StopReason returns the message passed to Stop, or "" if no stop was
// requested.
func (k *Kernel) StopReason() string { return k.stopMsg }

// Step simulates exactly one cycle: phase 1 (Eval) over all awake
// components, then phase 2 (Update), then gating decisions, then the
// cycle counter advances.
func (k *Kernel) Step() {
	now := k.now
	for i := range k.comps {
		cs := &k.comps[i]
		if cs.asleep {
			if now < cs.wakeAt {
				continue
			}
			cs.asleep = false
			k.sleeping--
		}
		cs.c.Eval(now)
	}
	for i := range k.comps {
		cs := &k.comps[i]
		if cs.asleep {
			continue
		}
		cs.c.Update(now)
	}
	if k.gateable > 0 && !k.GateDisabled {
		for i := range k.comps {
			cs := &k.comps[i]
			if cs.sl == nil || cs.asleep || cs.signaled == now {
				continue
			}
			// A watched register may have committed during this cycle's
			// Update phase after this component's own Update ran; the
			// signaled stamp above catches that and keeps it awake.
			if wakeAt, ok := cs.sl.Quiescent(now); ok && wakeAt > now+1 {
				cs.asleep = true
				cs.wakeAt = wakeAt
				k.sleeping++
			}
		}
	}
	k.now++
}

// fastForward advances the clock without stepping while every component
// sleeps, stopping at the earliest wake cycle or the horizon (the first
// cycle that must not be simulated). With every component quiescent no
// state can change, so the skipped cycles are bit-identical no-ops.
func (k *Kernel) fastForward(horizon Cycle) {
	if k.sleeping != len(k.comps) || len(k.comps) == 0 {
		return
	}
	wake := CycleMax
	for i := range k.comps {
		if w := k.comps[i].wakeAt; w < wake {
			wake = w
		}
	}
	if wake > horizon {
		wake = horizon
	}
	if wake > k.now {
		k.now = wake
	}
}

// Run simulates n cycles, or fewer if a component calls Stop. It returns
// the number of cycles actually simulated and ErrStopped if the run was
// cut short.
func (k *Kernel) Run(n Cycle) (Cycle, error) {
	start := k.now
	end := start.AddSat(n)
	for k.now < end {
		k.fastForward(end)
		if k.now >= end {
			break
		}
		k.Step()
		if k.stopped {
			return k.now - start, ErrStopped
		}
	}
	return k.now - start, nil
}

// RunUntil simulates cycles until pred returns true (checked after each
// cycle) or the limit is reached. It returns the number of cycles
// simulated and whether the predicate was satisfied. pred must be a
// pure observation: while every component sleeps its value cannot
// change, which lets the kernel fast-forward gated stretches.
func (k *Kernel) RunUntil(pred func() bool, limit Cycle) (Cycle, bool) {
	start := k.now
	end := start.AddSat(limit)
	for k.now < end {
		k.fastForward(end)
		if k.now >= end {
			break
		}
		k.Step()
		if pred() {
			return k.now - start, true
		}
		if k.stopped {
			return k.now - start, false
		}
	}
	return k.now - start, false
}
