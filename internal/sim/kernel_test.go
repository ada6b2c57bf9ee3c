package sim

import "testing"

// counter increments a registered value every cycle; its committed value
// therefore equals the number of completed cycles.
type counter struct {
	v *Reg[int]
}

// newCounter returns a counter whose register is in k's bank.
func newCounter(k *Kernel) *counter {
	c := &counter{v: NewReg(0)}
	k.Bank().Add(c.v)
	return c
}
func (c *counter) Name() string   { return "counter" }
func (c *counter) Eval(now Cycle) { c.v.Set(c.v.Get() + 1) }
func (c *counter) Value() int     { return c.v.Get() }

// follower copies the counter's committed value; because reads in Eval
// see only committed values, it must lag the counter by exactly one.
type follower struct {
	src *counter
	v   *Reg[int]
}

// newFollower returns a follower of src whose register is in k's bank.
func newFollower(k *Kernel, src *counter) *follower {
	f := &follower{src: src, v: NewReg(-1)}
	k.Bank().Add(f.v)
	return f
}
func (f *follower) Name() string   { return "follower" }
func (f *follower) Eval(now Cycle) { f.v.Set(f.src.Value()) }

func TestKernelStepAdvancesCycle(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("new kernel at cycle %v, want 0", k.Now())
	}
	k.Step()
	k.Step()
	if k.Now() != 2 {
		t.Fatalf("after 2 steps Now() = %v, want 2", k.Now())
	}
}

func TestKernelTwoPhaseSemantics(t *testing.T) {
	k := NewKernel()
	c := newCounter(k)
	f := newFollower(k, c)
	// Register the follower FIRST: if Eval leaked uncommitted values the
	// follower would see stale data in a registration-order-dependent
	// way. With correct two-phase semantics order must not matter.
	k.Register(f)
	k.Register(c)
	for i := 0; i < 10; i++ {
		k.Step()
		if got, want := c.Value(), i+1; got != want {
			t.Fatalf("cycle %d: counter = %d, want %d", i, got, want)
		}
		if got, want := f.v.Get(), i; got != want {
			t.Fatalf("cycle %d: follower = %d, want %d (one-cycle lag)", i, got, want)
		}
	}
}

func TestKernelRegistrationOrderInvariance(t *testing.T) {
	run := func(followerFirst bool) int {
		k := NewKernel()
		c := newCounter(k)
		f := newFollower(k, c)
		if followerFirst {
			k.Register(f)
			k.Register(c)
		} else {
			k.Register(c)
			k.Register(f)
		}
		if n := k.Run(25); n != 25 {
			t.Fatalf("Run(25) simulated %d cycles", n)
		}
		return f.v.Get()
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("registration order changed result: %d vs %d", a, b)
	}
}

func TestKernelDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	k := NewKernel()
	c := newCounter(k)
	k.Register(c)
	k.Register(c)
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	c := newCounter(k)
	k.Register(c)
	n, ok := k.RunUntil(func() bool { return c.Value() >= 7 }, 100)
	if !ok || n != 7 {
		t.Fatalf("RunUntil = (%d,%v), want (7,true)", n, ok)
	}
	n, ok = k.RunUntil(func() bool { return c.Value() >= 1000 }, 10)
	if ok || n != 10 {
		t.Fatalf("RunUntil limit = (%d,%v), want (10,false)", n, ok)
	}
}

func TestRegForceBypassesPhases(t *testing.T) {
	r := NewReg(1)
	r.Set(2)
	r.Force(9)
	r.Commit() // must not resurrect the pending Set(2)
	if r.Get() != 9 {
		t.Fatalf("after Force+Commit Get() = %d, want 9", r.Get())
	}
}

func TestRegBankCommitsAll(t *testing.T) {
	var bank RegBank
	a, b := NewReg(0), NewReg("x")
	bank.Add(a)
	bank.Add(b)
	a.Set(5)
	b.Set("y")
	if a.Get() != 0 || b.Get() != "x" {
		t.Fatal("Set leaked before commit")
	}
	bank.CommitAll()
	if a.Get() != 5 || b.Get() != "y" {
		t.Fatalf("after CommitAll: %d %q", a.Get(), b.Get())
	}
}
