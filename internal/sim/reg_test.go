package sim

import (
	"math/rand"
	"testing"
)

// refReg is the sweep-everything reference the change-driven RegBank is
// held to: plain two-phase state, committed by walking every banked
// register in Add order whether or not it was Set.
type refReg struct {
	cur, next int
	dirty     bool
	banked    bool
}

// commit mirrors Reg.Commit and reports whether a pending Set landed,
// which is exactly when the register's watcher must be woken.
func (r *refReg) commit() bool {
	if !r.dirty {
		return false
	}
	r.cur, r.dirty = r.next, false
	return true
}

// TestRegBankMatchesSweepReference drives seeded random Set / Force /
// Add / direct-Commit sequences against a RegBank and against refReg,
// including Sets that land before the register is banked, registers
// that are never banked, and Force or direct Commit on a queued
// register (both leave a stale queue entry). After every operation the
// visible values must agree, and after every CommitAll each register's
// watcher must have been woken exactly when the reference committed a
// pending Set on it.
func TestRegBankMatchesSweepReference(t *testing.T) {
	const nRegs, nOps = 12, 600
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var bank RegBank
		regs := make([]*Reg[int], nRegs)
		ref := make([]refReg, nRegs)
		var order []int // Add order of the reference sweep
		for i := range regs {
			regs[i] = NewReg(i)
			ref[i] = refReg{cur: i, next: i}
			c := &tickComp{}
			k.Register(c)
			regs[i].Notify(k.Waker(c)) // component i watches register i
		}
		woken := make([]bool, nRegs) // reference wakes since the last CommitAll
		for op := 0; op < nOps; op++ {
			i, v := rng.Intn(nRegs), rng.Intn(1000)
			switch p := rng.Intn(100); {
			case p < 50:
				regs[i].Set(v)
				ref[i].next, ref[i].dirty = v, true
			case p < 58:
				regs[i].Force(v)
				ref[i] = refReg{cur: v, next: v, banked: ref[i].banked}
			case p < 66:
				regs[i].Commit()
				woken[i] = ref[i].commit() || woken[i]
			case p < 76:
				if !ref[i].banked {
					bank.Add(regs[i])
					ref[i].banked = true
					order = append(order, i)
				}
			default:
				bank.CommitAll()
				for _, j := range order {
					woken[j] = ref[j].commit() || woken[j]
				}
				for j := range regs {
					if got := k.comps[j].signaled == k.now; got != woken[j] {
						t.Fatalf("seed %d op %d: watcher of register %d woken=%v, reference %v", seed, op, j, got, woken[j])
					}
					woken[j] = false
				}
				k.now++ // a fresh stamp per commit round
			}
			for j := range regs {
				if regs[j].Get() != ref[j].cur {
					t.Fatalf("seed %d op %d: register %d reads %d, reference %d", seed, op, j, regs[j].Get(), ref[j].cur)
				}
			}
		}
	}
}

// countingReg counts the Commit calls a bank makes on it.
type countingReg struct {
	Reg[int]
	commits *int
}

func (c *countingReg) Commit() {
	*c.commits++
	c.Reg.Commit()
}

// TestCommitAllVisitsOnlyDirtyRegisters keeps the full sweep from
// coming back: with one register of a thousand Set, CommitAll makes
// one Commit call, and none on the following clean cycle.
func TestCommitAllVisitsOnlyDirtyRegisters(t *testing.T) {
	var bank RegBank
	commits := 0
	regs := make([]*countingReg, 1000)
	for i := range regs {
		regs[i] = &countingReg{commits: &commits}
		bank.Add(regs[i])
	}
	regs[417].Set(7)
	bank.CommitAll()
	if commits != 1 || regs[417].Get() != 7 {
		t.Fatalf("one dirty register of 1000: %d Commit calls (want 1), value %d (want 7)", commits, regs[417].Get())
	}
	bank.CommitAll()
	if commits != 1 {
		t.Fatalf("clean CommitAll made %d Commit calls, want 0", commits-1)
	}
}

func TestRegBankAddToSecondBankPanics(t *testing.T) {
	var a, b RegBank
	r := NewReg(0)
	a.Add(r)
	defer func() {
		if recover() == nil {
			t.Fatal("adding a banked register to another bank did not panic")
		}
	}()
	b.Add(r)
}

// TestRegBankSteadyStateAllocatesNothing: the pending list is sized in
// Add, so a cycle that Sets every register of a bank and commits them
// allocates nothing.
func TestRegBankSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var bank RegBank
	regs := make([]*Reg[int], 8)
	for i := range regs {
		regs[i] = NewReg(0)
		bank.Add(regs[i])
	}
	if cap(bank.pending) < len(regs) {
		t.Fatalf("pending list has room for %d of %d registers after Add", cap(bank.pending), len(regs))
	}
	n, queued := 0, 0
	cycle := func() {
		n++
		for _, r := range regs {
			r.Set(n)
			r.Set(n + 1) // a second Set in the cycle must not queue twice
		}
		queued = max(queued, len(bank.pending))
		bank.CommitAll()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("Set+CommitAll allocates %v times per cycle, want 0", allocs)
	}
	if queued != len(regs) {
		t.Fatalf("%d entries pending for %d registers", queued, len(regs))
	}
	if got := regs[7].Get(); got != n+1 {
		t.Fatalf("register reads %d after %d cycles, want %d", got, n, n+1)
	}
}
