package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refKernel is the reference the awake-set Kernel is held to: the plain
// three-loop Step the kernel had while each component committed its own
// registers and the kernel polled its sleepers. Eval sweeps every
// component and wakes a due sleeper in place; Update sweeps every awake
// component, each committing its own bank; the gating poll sweeps every
// awake polled component, asking it after the commit whether it may
// sleep. The Kernel's components ask from their own Eval instead
// (Kernel.Sleep); the two protocols must agree cycle for cycle.
type refKernel struct {
	GateDisabled bool

	comps    []refKcomp
	now      Cycle
	sleeping int
}

// refComponent is a component of the reference kernel: it commits its
// own registers in Update.
type refComponent interface {
	Eval(now Cycle)
	Update(now Cycle)
}

// refPolled is a reference component that may sleep: the kernel polls
// it after the commit, and ok reports that it may sleep until wakeAt.
type refPolled interface {
	refComponent
	Poll(now Cycle) (wakeAt Cycle, ok bool)
}

type refKcomp struct {
	c        refComponent
	sl       refPolled
	asleep   bool
	wakeAt   Cycle
	signaled Cycle
}

func (k *refKernel) register(c refComponent) {
	kc := refKcomp{c: c, signaled: CycleMax}
	kc.sl, _ = c.(refPolled)
	k.comps = append(k.comps, kc)
}

// wake is the reference Waker.Wake for component i.
func (k *refKernel) wake(i int) {
	cs := &k.comps[i]
	cs.signaled = k.now
	if cs.asleep {
		cs.asleep = false
		k.sleeping--
	}
}

func (k *refKernel) step() {
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
	if !k.GateDisabled {
		for i := range k.comps {
			cs := &k.comps[i]
			if cs.sl == nil || cs.asleep || cs.signaled == now {
				continue
			}
			if wakeAt, ok := cs.sl.Poll(now); ok && wakeAt > now+1 {
				cs.asleep = true
				cs.wakeAt = wakeAt
				k.sleeping++
			}
		}
	}
	k.now++
}

func (k *refKernel) fastForward(horizon Cycle) {
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

func (k *refKernel) run(n Cycle) Cycle {
	start := k.now
	end := start.AddSat(n)
	for k.now < end {
		k.fastForward(end)
		if k.now >= end {
			break
		}
		k.step()
	}
	return k.now - start
}

func (k *refKernel) runUntil(pred func() bool, limit Cycle) (Cycle, bool) {
	start := k.now
	end := start.AddSat(limit)
	for k.now < end {
		k.fastForward(end)
		if k.now >= end {
			break
		}
		k.step()
		if pred() {
			return k.now - start, true
		}
	}
	return k.now - start, false
}

// graph is a random component graph: which component drives, reads and
// watches which register, and each component's behaviour, written once
// for both kernels.
type graph struct {
	seed    uint64
	drives  [][]int // registers component c Sets
	reads   [][]int // registers component c reads in Eval
	watches [][]int // registers whose commit wakes component c
	sleeper []bool
	nRegs   int
	setOdds uint64 // a driven register is Set on about 1 in setOdds Evals
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func randomGraph(rng *rand.Rand) *graph {
	var n int
	switch rng.Intn(3) {
	case 0:
		n = 1 + rng.Intn(8)
	case 1:
		n = 60 + rng.Intn(10) // across the first 64-component word
	default:
		n = 125 + rng.Intn(10) // into the third
	}
	g := &graph{
		seed:    rng.Uint64(),
		drives:  make([][]int, n),
		reads:   make([][]int, n),
		watches: make([][]int, n),
		sleeper: make([]bool, n),
		setOdds: uint64(2 + rng.Intn(8)),
	}
	for c := range n {
		for range rng.Intn(4) {
			g.drives[c] = append(g.drives[c], g.nRegs)
			g.nRegs++
		}
		g.sleeper[c] = rng.Intn(8) != 0
	}
	for c := range n {
		if g.nRegs == 0 {
			break
		}
		for range rng.Intn(4) {
			g.reads[c] = append(g.reads[c], rng.Intn(g.nRegs))
		}
		for range rng.Intn(3) {
			g.watches[c] = append(g.watches[c], rng.Intn(g.nRegs))
		}
	}
	return g
}

// eval is component c's Eval: it folds the cycle and the registers it
// reads into its state, Sets some of the registers it drives, and
// returns a digest of what it read.
func (g *graph) eval(c int, now Cycle, acc *uint64, get func(int) uint64, set func(int, uint64)) uint64 {
	seen := mix(g.seed ^ uint64(c)<<40 ^ uint64(now))
	for _, r := range g.reads[c] {
		seen = mix(seen ^ get(r))
	}
	*acc = mix(*acc ^ seen)
	h := *acc
	for _, r := range g.drives[c] {
		if h = mix(h); h%g.setOdds == 0 {
			set(r, h>>32%4) // few values, so a Set often repeats the committed one
		}
	}
	return seen
}

// sleep is component c's gating answer: stay awake, a wake cycle too
// soon to sleep, a timed wake, or a wake on a watched signal only.
func (g *graph) sleep(c int, now Cycle, acc uint64) (Cycle, bool) {
	h := mix(acc ^ uint64(now)*0x9e3779b97f4a7c15 ^ uint64(c))
	switch p := h % 20; {
	case p < 5:
		return 0, false
	case p < 7:
		return now + Cycle(h>>8%2), true
	case p < 17:
		return now + 2 + Cycle(h>>8%60), true
	}
	return CycleMax, true
}

// evalEntry is one line of an Eval log.
type evalEntry struct {
	now  Cycle
	comp int
	seen uint64
}

// node runs a graph component on the Kernel.
type node struct {
	g    *graph
	id   int
	acc  uint64
	regs []*Reg[uint64]
	log  *[]evalEntry
}

func (n *node) Name() string { return fmt.Sprintf("node%d", n.id) }
func (n *node) Eval(now Cycle) {
	seen := n.g.eval(n.id, now, &n.acc,
		func(r int) uint64 { return n.regs[r].Get() },
		func(r int, v uint64) { n.regs[r].Set(v) })
	*n.log = append(*n.log, evalEntry{now, n.id, seen})
}

// sleeperNode is a node that asks to sleep at the end of its Eval.
type sleeperNode struct {
	node
	k *Kernel
}

func (n *sleeperNode) Eval(now Cycle) {
	n.node.Eval(now)
	if wakeAt, ok := n.g.sleep(n.id, now, n.acc); ok {
		n.k.Sleep(wakeAt)
	}
}

// refSignal is a register of the reference kernel: two-phase state and
// the components its commit wakes.
type refSignal struct {
	cur, next uint64
	dirty     bool
	watchers  []int
}

// refNode runs a graph component on the reference kernel, committing
// the registers it Set, in Set order, in its own Update.
type refNode struct {
	k       *refKernel
	g       *graph
	id      int
	acc     uint64
	regs    []refSignal
	pending []int
	log     *[]evalEntry
}

func (n *refNode) Eval(now Cycle) {
	seen := n.g.eval(n.id, now, &n.acc,
		func(r int) uint64 { return n.regs[r].cur },
		func(r int, v uint64) {
			s := &n.regs[r]
			s.next = v
			if !s.dirty {
				s.dirty = true
				n.pending = append(n.pending, r)
			}
		})
	*n.log = append(*n.log, evalEntry{now, n.id, seen})
}

func (n *refNode) Update(now Cycle) {
	for _, r := range n.pending {
		s := &n.regs[r]
		s.cur, s.dirty = s.next, false
		for _, w := range s.watchers {
			n.k.wake(w)
		}
	}
	n.pending = n.pending[:0]
}

// refPolledNode is a node the reference kernel polls.
type refPolledNode struct{ refNode }

func (n *refPolledNode) Poll(now Cycle) (Cycle, bool) { return n.g.sleep(n.id, now, n.acc) }

// TestKernelMatchesReference runs seeded random component graphs —
// random Sets, watched registers, timed and signal wakes, stretches
// where every component sleeps — through the Kernel and through
// refKernel, in random Run and RunUntil chunks (mostly single cycles).
// Both must evaluate the same components on the same cycles, reading
// the same values, and hold the same committed values, cycle count and
// sleeper count after every chunk. Its seeds are the fuzz corpus of
// FuzzKernelMatchesReference.
func TestKernelMatchesReference(t *testing.T) {
	var stepped, simulated Cycle
	for seed := int64(1); seed <= 60; seed++ {
		st, n := matchReference(t, seed)
		stepped += st
		simulated += n
	}
	// The graphs must exercise gating: some cycles are skipped whole.
	if stepped >= simulated {
		t.Fatalf("every one of %d cycles evaluated a component: no all-asleep stretch was exercised", simulated)
	}
	t.Logf("%d of %d cycles evaluated a component", stepped, simulated)
}

// FuzzKernelMatchesReference is TestKernelMatchesReference over any
// seed of the random-graph generator.
func FuzzKernelMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 60; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { matchReference(t, seed) })
}

// matchReference runs the random graph of one seed through both
// kernels, failing t at the first divergence, and returns how many
// cycles evaluated a component and how many were simulated.
func matchReference(t *testing.T, seed int64) (stepped, simulated Cycle) {
	t.Helper()
	const cycles = 1500
	rng := rand.New(rand.NewSource(seed))
	g := randomGraph(rng)
	gateOff := rng.Intn(5) == 0

	k := NewKernel()
	k.GateDisabled = gateOff
	var log []evalEntry
	regs := make([]*Reg[uint64], g.nRegs)
	for r := range regs {
		regs[r] = NewReg[uint64](0)
		k.Bank().Add(regs[r])
	}
	nodes := make([]Component, len(g.drives))
	for c := range nodes {
		n := node{g: g, id: c, regs: regs, log: &log}
		if g.sleeper[c] {
			nodes[c] = &sleeperNode{n, k}
		} else {
			nodes[c] = &n
		}
		k.Register(nodes[c])
	}

	ref := &refKernel{GateDisabled: gateOff}
	var refLog []evalEntry
	sigs := make([]refSignal, g.nRegs)
	for c := range g.drives {
		n := refNode{k: ref, g: g, id: c, regs: sigs, log: &refLog}
		if g.sleeper[c] {
			ref.register(&refPolledNode{n})
		} else {
			ref.register(&n)
		}
	}
	for c, ws := range g.watches {
		for _, r := range ws {
			regs[r].Notify(k.Waker(nodes[c]))
			sigs[r].watchers = append(sigs[r].watchers, c)
		}
	}

	for chunk := 0; k.Now() < cycles; chunk++ {
		var what string
		switch p := rng.Intn(10); {
		case p < 6:
			n := k.Run(1)
			what = fmt.Sprintf("Run(1)=%d", n)
			if rn := ref.run(1); rn != n {
				t.Fatalf("seed %d chunk %d: Run(1) simulated %d cycles, reference %d", seed, chunk, n, rn)
			}
		case p < 9 || g.nRegs == 0:
			d := Cycle(1 + rng.Intn(50))
			n := k.Run(d)
			what = fmt.Sprintf("Run(%d)=%d", d, n)
			if rn := ref.run(d); rn != n {
				t.Fatalf("seed %d chunk %d: Run(%d) simulated %d cycles, reference %d", seed, chunk, d, n, rn)
			}
		default:
			r, want, limit := rng.Intn(g.nRegs), uint64(rng.Intn(4)), Cycle(1+rng.Intn(200))
			n, ok := k.RunUntil(func() bool { return regs[r].Get() == want }, limit)
			what = fmt.Sprintf("RunUntil(reg %d == %d, %d)=%d,%v", r, want, limit, n, ok)
			rn, rok := ref.runUntil(func() bool { return sigs[r].cur == want }, limit)
			if rn != n || rok != ok {
				t.Fatalf("seed %d chunk %d: %s, reference %d,%v", seed, chunk, what, rn, rok)
			}
		}
		if k.Now() != ref.now || k.Sleeping() != ref.sleeping {
			t.Fatalf("seed %d chunk %d %s: now %v sleeping %d, reference now %v sleeping %d",
				seed, chunk, what, k.Now(), k.Sleeping(), ref.now, ref.sleeping)
		}
		if i := firstDiff(log, refLog); i >= 0 {
			t.Fatalf("seed %d chunk %d %s: Eval logs differ at entry %d:\n kernel    %v\n reference %v",
				seed, chunk, what, i, log[i:min(i+3, len(log))], refLog[i:min(i+3, len(refLog))])
		}
		for r := range regs {
			if regs[r].Get() != sigs[r].cur {
				t.Fatalf("seed %d chunk %d %s: register %d reads %d, reference %d", seed, chunk, what, r, regs[r].Get(), sigs[r].cur)
			}
		}
	}
	// The work counters agree with the Eval log: every stepped cycle
	// evaluates a component.
	for i, e := range log {
		if i == 0 || e.now != log[i-1].now {
			stepped++
		}
	}
	if k.Steps() != uint64(stepped) || k.Evals() != uint64(len(log)) {
		t.Fatalf("seed %d: Steps %d Evals %d, the Eval log holds %d cycles and %d Evals",
			seed, k.Steps(), k.Evals(), stepped, len(log))
	}
	return stepped, k.Now()
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []evalEntry) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
