package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// chaosComp flips registered state based on other components' committed
// values; used to stress order-invariance with many components.
type chaosComp struct {
	id    int
	peers []*chaosComp
	v     *Reg[uint64]
}

func (c *chaosComp) Name() string { return "chaos" }
func (c *chaosComp) Eval(now Cycle) {
	acc := c.v.Get()*1099511628211 + uint64(c.id)
	for _, p := range c.peers {
		acc ^= p.v.Get()
	}
	c.v.Set(acc)
}
func (c *chaosComp) Update(now Cycle) { c.v.Commit() }

// TestKernelOrderInvarianceProperty: any registration order of mutually
// reading components yields identical state trajectories.
func TestKernelOrderInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		build := func(perm []int) uint64 {
			n := 6
			comps := make([]*chaosComp, n)
			for i := range comps {
				comps[i] = &chaosComp{id: i, v: NewReg(uint64(i + 1))}
			}
			for i := range comps {
				comps[i].peers = []*chaosComp{comps[(i+1)%n], comps[(i+3)%n]}
			}
			k := NewKernel()
			for _, idx := range perm {
				k.Register(comps[idx])
			}
			if _, err := k.Run(50); err != nil {
				t.Fatal(err)
			}
			var h uint64
			for _, c := range comps {
				h = h*31 + c.v.Get()
			}
			return h
		}
		rng := rand.New(rand.NewSource(seed))
		identity := []int{0, 1, 2, 3, 4, 5}
		perm := rng.Perm(6)
		return build(identity) == build(perm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerEventStorm pushes tens of thousands of events with
// identical and clustered timestamps.
func TestSchedulerEventStorm(t *testing.T) {
	s := NewScheduler()
	const n = 50_000
	count := 0
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		at(s, Cycle(rng.Intn(100)), func(Cycle) { count++ })
	}
	s.RunAll()
	if count != n {
		t.Fatalf("executed %d/%d", count, n)
	}
}

// TestSchedulerReentrantScheduling: events scheduling at their own
// cycle run within the same cycle, in FIFO order after existing events.
func TestSchedulerReentrantScheduling(t *testing.T) {
	s := NewScheduler()
	var order []string
	at(s, 5, func(now Cycle) {
		order = append(order, "a")
		at(s, now, func(Cycle) { order = append(order, "c") })
	})
	at(s, 5, func(Cycle) { order = append(order, "b") })
	s.RunAll()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestSchedulerEventPoolReuse: the free list must never deliver a stale
// callback.
func TestSchedulerEventPoolReuse(t *testing.T) {
	s := NewScheduler()
	seen := map[int]int{}
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			i := i
			at(s, s.Now()+Cycle(1+i%7), func(Cycle) { seen[i]++ })
		}
		s.RunAll()
	}
	for i, n := range seen {
		if n != 10 {
			t.Fatalf("callback %d ran %d times, want 10", i, n)
		}
	}
}

// TestRegWithStructValues: registers of composite types behave by value.
func TestRegWithStructValues(t *testing.T) {
	type pair struct {
		A, B int
	}
	r := NewReg(pair{1, 2})
	v := r.Get()
	v.A = 99 // mutating the copy must not leak into the register
	if r.Get().A != 1 {
		t.Fatal("register leaked a reference")
	}
	r.Set(pair{3, 4})
	if r.Get() != (pair{1, 2}) {
		t.Fatal("set visible before commit")
	}
	r.Commit()
	if r.Get() != (pair{3, 4}) {
		t.Fatal("commit failed")
	}
}

// TestKernelLongRun: the kernel sustains millions of cycles without
// drift in the cycle counter.
func TestKernelLongRun(t *testing.T) {
	k := NewKernel()
	c := newCounter()
	k.Register(c)
	if _, err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 1_000_000 || c.Value() != 1_000_000 {
		t.Fatalf("drift: now=%v counter=%d", k.Now(), c.Value())
	}
}
