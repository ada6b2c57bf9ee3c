package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// Component is a hardware block simulated by the two-phase cycle-based
// Kernel. On every cycle the kernel first calls Eval on every awake
// component (phase 1: compute next state from the current, stable
// signal values) and then commits every register Set during the phase
// (phase 2: the kernel's RegBank), so the new values become visible in
// the following cycle. This is the classic two-step cycle-based scheme:
// no delta cycles, no event sensitivity lists.
type Component interface {
	// Name identifies the component in error messages and traces.
	Name() string
	// Eval computes the component's next state from currently visible
	// signal values. Its register writes go through Reg.Set on
	// registers in the kernel's bank (Kernel.Bank), which the kernel
	// commits once every awake component has evaluated.
	Eval(now Cycle)
}

// Sleeper is an optional Component extension enabling clock gating: a
// component that reports itself quiescent is skipped (its Eval does not
// run) until either its reported wake cycle arrives or a watched
// register (see Reg.Notify) commits a new value. Quiescence must be
// conservative: a sleeping component is promised bit-identical
// behaviour to an always-evaluated one, so a component may only report
// quiescent when, absent a watched-signal change, every future Eval up
// to the wake cycle would be a no-op.
type Sleeper interface {
	Component
	// Quiescent is polled after the commit phase. ok reports whether
	// the component may be gated; wakeAt is the first future cycle at
	// which it has time-driven work again (CycleMax when only a watched
	// signal can wake it).
	Quiescent(now Cycle) (wakeAt Cycle, ok bool)
}

// compSet is 64 components' membership of the kernel's two sets.
type compSet struct{ awake, gateable uint64 }

// kcomp is a registered component plus its gating state.
type kcomp struct {
	c        Component
	sl       Sleeper // nil when the component cannot be gated
	wakeAt   Cycle   // valid while the component sleeps
	signaled Cycle   // last cycle a watched register committed a change
}

// Kernel is the two-phase cycle-based simulation kernel used by the
// pin-accurate model. Awake components are evaluated in registration
// order, then the kernel's one RegBank commits every register Set in
// the cycle; because phase-1 reads only see committed values,
// registration order does not affect results. Components implementing
// Sleeper are clock gated while quiescent, and when every registered
// component sleeps the kernel fast-forwards the cycle counter to the
// earliest wake — the cycle count and all visible state remain exactly
// as if every cycle had been stepped. A cycle costs the awake
// components and the registers that changed, not the components and
// registers that exist.
type Kernel struct {
	// GateDisabled turns clock gating off: every component is evaluated
	// every cycle, exactly as the pre-gating kernel behaved. Gating is
	// required to be observation-equivalent, so this exists for
	// differential tests and debugging, not configuration.
	GateDisabled bool

	comps []kcomp
	// sets holds one bit per component, in registration order: which
	// components Eval runs on, and which are Sleepers.
	sets     []compSet
	regs     RegBank
	now      Cycle
	nextWake Cycle // no sleeper's wakeAt is earlier (it may be stale-early)
	stopped  bool
	stopMsg  string
	sleeping int
}

// ErrStopped is returned by Run when a component requested a stop via
// Kernel.Stop before the requested cycle count elapsed.
var ErrStopped = errors.New("sim: stopped by component request")

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{nextWake: CycleMax}
}

// Register adds a component to the kernel, awake. Registering the same
// component twice is a programming error and panics.
func (k *Kernel) Register(c Component) {
	for i := range k.comps {
		if k.comps[i].c == c {
			panic(fmt.Sprintf("sim: component %q registered twice", c.Name()))
		}
	}
	kc := kcomp{c: c, signaled: CycleMax}
	i := len(k.comps)
	if i>>6 == len(k.sets) {
		k.sets = append(k.sets, compSet{})
	}
	set := &k.sets[i>>6]
	set.awake |= 1 << (i & 63)
	if sl, ok := c.(Sleeper); ok {
		kc.sl = sl
		set.gateable |= 1 << (i & 63)
	}
	k.comps = append(k.comps, kc)
}

// Bank returns the kernel's register bank. Every register a component
// drives is added to it; Step commits what was Set, in Set order, after
// the Eval phase.
func (k *Kernel) Bank() *RegBank { return &k.regs }

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
	k := w.k
	k.comps[w.idx].signaled = k.now
	k.wake(w.idx)
}

// wake puts component i in the awake set if it sleeps.
func (k *Kernel) wake(i int) {
	if set, bit := &k.sets[i>>6], uint64(1)<<(i&63); set.awake&bit == 0 {
		set.awake |= bit
		k.sleeping--
	}
}

// Sleeping returns the number of currently gated components.
func (k *Kernel) Sleeping() int { return k.sleeping }

// Now returns the current simulation cycle. During Eval callbacks it is
// the cycle being simulated.
func (k *Kernel) Now() Cycle { return k.now }

// Stop requests that the simulation stop after the current cycle
// completes (both phases still run). The message is reported through
// StopReason.
func (k *Kernel) Stop(msg string) {
	k.stopped = true
	k.stopMsg = msg
}

// StopReason returns the message passed to Stop, or "" if no stop was
// requested.
func (k *Kernel) StopReason() string { return k.stopMsg }

// Step simulates exactly one cycle: sleepers whose wake cycle arrived
// join the awake set, phase 1 (Eval) runs over the awake set, phase 2
// commits the bank, awake sleepers are polled for gating, and the cycle
// counter advances.
func (k *Kernel) Step() {
	now := k.now
	if now >= k.nextWake {
		k.wakeDue(now)
	}
	for wi, set := range k.sets {
		for word := set.awake; word != 0; word &= word - 1 {
			k.comps[wi<<6|bits.TrailingZeros64(word)].c.Eval(now)
		}
	}
	k.regs.CommitAll()
	if !k.GateDisabled {
		k.gate(now)
	}
	k.now++
}

// wakeDue wakes every sleeper whose wake cycle is now or earlier and
// recomputes the earliest wake of those still asleep.
func (k *Kernel) wakeDue(now Cycle) {
	next := CycleMax
	for i := range k.comps {
		if k.sets[i>>6].awake&(1<<(i&63)) != 0 {
			continue
		}
		if w := k.comps[i].wakeAt; w <= now {
			k.wake(i)
		} else if w < next {
			next = w
		}
	}
	k.nextWake = next
}

// gate polls every awake sleeper not signaled this cycle and puts the
// quiescent ones to sleep. A watched register that committed this cycle
// stamps its watchers, which keeps them awake: they have not yet
// observed the new value.
func (k *Kernel) gate(now Cycle) {
	for wi := range k.sets {
		set := &k.sets[wi]
		for word := set.awake & set.gateable; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			cs := &k.comps[i]
			if cs.signaled == now {
				continue
			}
			if wakeAt, ok := cs.sl.Quiescent(now); ok && wakeAt > now+1 {
				set.awake &^= 1 << (i & 63)
				cs.wakeAt = wakeAt
				k.sleeping++
				k.nextWake = min(k.nextWake, wakeAt)
			}
		}
	}
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
		wake = min(wake, k.comps[i].wakeAt)
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
