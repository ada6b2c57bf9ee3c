package sim

import "testing"

// BenchmarkSchedulerPostDispatch measures the steady-state event cycle
// of the event queue: post via the EventFn fast path, dispatch. Its
// allocs/op must read 0 — the contract
// TestSchedulerSteadyStateAllocatesNothing pins.
func BenchmarkSchedulerPostDispatch(b *testing.B) {
	s := NewScheduler()
	noop := func(Cycle, any, uint64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Post(s.Now()+3, noop, nil, 0)
		s.RunAll()
	}
}

// tickComp is a minimal always-on component for kernel benchmarks.
type tickComp struct{ n int }

func (c *tickComp) Name() string   { return "tick" }
func (c *tickComp) Eval(now Cycle) { c.n++ }

// gatedComp sleeps with a long timed wake, modeling an idle block.
type gatedComp struct {
	k *Kernel
	n int
}

func (c *gatedComp) Name() string { return "gated" }
func (c *gatedComp) Eval(now Cycle) {
	c.n++
	c.k.Sleep(now + 1000)
}

// BenchmarkKernelTickBusy is the per-cycle cost with every component
// evaluated (the pre-gating kernel behaviour).
func BenchmarkKernelTickBusy(b *testing.B) {
	k := NewKernel()
	for i := 0; i < 8; i++ {
		k.Register(&tickComp{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// regComp is an always-on component with eight banked registers that
// drives two of them each cycle: the duty cycle of a pin-accurate block,
// where most flops hold their value.
type regComp struct {
	regs [8]*Reg[int]
}

func (c *regComp) Name() string { return "regs" }
func (c *regComp) Eval(now Cycle) {
	c.regs[now%8].Set(int(now))
	c.regs[(now+3)%8].Set(int(now))
}

// BenchmarkKernelTickRegs is the per-cycle cost of the commit phase,
// which BenchmarkKernelTickBusy (no registers at all) cannot see: 8
// components x 8 registers, 16 of the 64 Set per cycle.
func BenchmarkKernelTickRegs(b *testing.B) {
	k := NewKernel()
	for i := 0; i < 8; i++ {
		c := &regComp{}
		for j := range c.regs {
			c.regs[j] = NewReg(0)
			k.Bank().Add(c.regs[j])
		}
		k.Register(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkKernelTickGated is the same platform with every component
// quiescent: the kernel fast-forwards across the gated stretch, so the
// per-simulated-cycle cost collapses.
func BenchmarkKernelTickGated(b *testing.B) {
	k := NewKernel()
	for i := 0; i < 8; i++ {
		k.Register(&gatedComp{k: k})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(1000)
	}
	b.ReportMetric(float64(uint64(k.Now()))/float64(b.N), "cycles/op")
}
