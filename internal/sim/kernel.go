package sim

import (
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
	// commits once every awake component has evaluated. An Eval whose
	// next state is quiescent may ask for clock gating with
	// Kernel.Sleep.
	Eval(now Cycle)
}

// compSet is 64 components' membership of the kernel's two sets: the
// awake components, and those whose Eval this cycle called Sleep.
type compSet struct{ awake, asked uint64 }

// kcomp is a registered component plus its gating state.
type kcomp struct {
	c        Component
	wakeAt   Cycle // asked for by Sleep; valid while the component sleeps
	signaled Cycle // last cycle a watched register committed a change
}

// Kernel is the two-phase cycle-based simulation kernel used by the
// pin-accurate model. Awake components are evaluated in registration
// order, then the kernel's one RegBank commits every register Set in
// the cycle; because phase-1 reads only see committed values,
// registration order does not affect results. A component clock gates
// itself by calling Sleep from its Eval; the kernel applies the request
// after the commit, unless a watched register committed for the
// component in that same cycle. When every registered component sleeps
// the kernel fast-forwards the cycle counter to the earliest wake — the
// cycle count and all visible state remain exactly as if every cycle
// had been stepped. A cycle costs the awake components and the
// registers that changed, not the components and registers that exist.
type Kernel struct {
	// GateDisabled turns clock gating off: Sleep is a no-op, so every
	// component is evaluated every cycle, exactly as the pre-gating
	// kernel behaved. Gating is required to be observation-equivalent,
	// so this exists for differential tests and debugging, not
	// configuration.
	GateDisabled bool

	comps []kcomp
	// sets holds one bit per component, in registration order: which
	// components Eval runs on, and which asked to sleep this cycle.
	sets     []compSet
	regs     RegBank
	now      Cycle
	cur      int   // the component being evaluated, -1 outside Eval
	nextWake Cycle // no sleeper's wakeAt is earlier (it may be stale-early)
	sleeping int
	steps    uint64
	evals    uint64
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{cur: -1, nextWake: CycleMax}
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
	k.sets[i>>6].awake |= 1 << (i & 63)
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
// sleeping component resumes evaluation next cycle, and an awake one's
// Sleep request of this cycle is dropped (it has not yet observed the
// new value).
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

// Sleep, called from an Eval, stops evaluating that component after
// this cycle's commit until cycle wakeAt, or until a watched register
// (Reg.Notify) wakes it. The request is dropped if the component's
// Waker fires this cycle (a watched register commits: the component has
// not seen the new value), if wakeAt <= now+1, and under GateDisabled.
//
// A sleeping component is promised bit-identical behaviour to an
// always-evaluated one: it may ask only when, absent a watched-signal
// change, every Eval before wakeAt would be a no-op, judged on the
// state it leaves for the commit. A register it does not watch must be
// shown not to change in this commit, or be predicted.
func (k *Kernel) Sleep(wakeAt Cycle) {
	i := k.cur
	cs := &k.comps[i] // k.cur is -1 outside Eval: such a call panics
	if k.GateDisabled || wakeAt <= k.now+1 {
		return
	}
	cs.wakeAt = wakeAt
	k.sets[i>>6].asked |= 1 << (i & 63)
}

// Sleeping returns the number of currently gated components.
func (k *Kernel) Sleeping() int { return k.sleeping }

// Steps returns the number of cycles stepped (not fast-forwarded).
func (k *Kernel) Steps() uint64 { return k.steps }

// Evals returns the number of Eval calls made.
func (k *Kernel) Evals() uint64 { return k.evals }

// Now returns the current simulation cycle. During Eval callbacks it is
// the cycle being simulated.
func (k *Kernel) Now() Cycle { return k.now }

// Step simulates exactly one cycle: sleepers whose wake cycle arrived
// join the awake set, phase 1 (Eval) runs over the awake set, phase 2
// commits the bank, the Sleep requests of phase 1 are applied, and the
// cycle counter advances.
func (k *Kernel) Step() {
	now := k.now
	if now >= k.nextWake {
		k.wakeDue(now)
	}
	for wi, set := range k.sets {
		k.evals += uint64(bits.OnesCount64(set.awake))
		for word := set.awake; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			k.cur = i
			k.comps[i].c.Eval(now)
		}
	}
	k.cur = -1
	k.regs.CommitAll()
	k.applySleeps(now)
	k.steps++
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

// applySleeps puts to sleep every component whose Eval asked this
// cycle, except those a watched register stamped: they have not yet
// observed the value it committed.
func (k *Kernel) applySleeps(now Cycle) {
	for wi := range k.sets {
		set := &k.sets[wi]
		for word := set.asked; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			if cs := &k.comps[i]; cs.signaled != now {
				set.awake &^= 1 << (i & 63)
				k.sleeping++
				k.nextWake = min(k.nextWake, cs.wakeAt)
			}
		}
		set.asked = 0
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

// Run simulates n cycles (fewer only when the cycle counter saturates)
// and returns the number simulated.
func (k *Kernel) Run(n Cycle) Cycle {
	ran, _ := k.RunUntil(func() bool { return false }, n)
	return ran
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
	}
	return k.now - start, false
}
