package rtl

import (
	"repro/internal/amba"
	"repro/internal/arb"
	"repro/internal/ddr"
	"repro/internal/memmodel"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Bus is the assembled pin-accurate AHB+ platform.
type Bus struct {
	plat    platform.Platform
	kernel  *sim.Kernel
	wires   *Wires
	masters []*masterComp
	wbm     *wbMasterComp
	arb     *arbiterComp
	fabric  *fabricComp
	wave    *waveComp
}

// New assembles the signal-level components around the shared
// platform. It panics on invalid configuration (see platform.Build).
func New(cfg platform.Config) *Bus {
	pl := platform.Build(cfg)
	n := len(cfg.Gens)
	size := amba.SizeForBytes(cfg.Params.BusBytes)
	w := newWires(n)

	b := &Bus{plat: pl, kernel: sim.NewKernel(), wires: w}
	for i, g := range cfg.Gens {
		m := newMaster(w, i, g, size, cfg.Checker)
		b.masters = append(b.masters, m)
		b.kernel.Register(m)
	}
	b.wbm = newWBMaster(w, cfg.Checker)
	b.kernel.Register(b.wbm)
	comb := arb.DefaultWith(cfg.Params.Filters)
	b.arb = newArbiter(w, pl.Pipeline, comb, pl.Regs, pl.Link, pl.Provider, cfg.Checker,
		cfg.Params.Pipelining, sim.Cycle(cfg.Params.UrgencyThreshold), cfg.Params.WriteBufferDepth)
	b.kernel.Register(b.arb)
	b.fabric = newFabric(w, &b.plat, cfg.Checker, size, cfg.Params.WriteBufferDepth, cfg.Params.SRAM)
	b.kernel.Register(b.fabric)
	ddrfsm := newDDRFSM(pl.Engine, cfg.Checker, w, pl.Link)
	b.kernel.Register(ddrfsm)
	if cfg.Waveform != nil {
		b.wave = newWave(w, cfg.Waveform)
		b.kernel.Register(b.wave)
	}

	// Clock-gating wake wiring. Every component above implements
	// sim.Sleeper; these register watches wake a gated component on the
	// exact cycle the input becomes visible to an always-evaluated one:
	//   - a request line wakes the arbiter (new round), the fabric
	//     (same-cycle BI hint delivery on the eventual grant) and the
	//     controller FSM (the round's permission probe touches the
	//     engine);
	//   - a committed grant wakes the fabric for the address-phase
	//     capture two cycles later;
	//   - write-buffer occupancy wakes the drain pseudo-master.
	arbW := b.kernel.Waker(b.arb)
	fabW := b.kernel.Waker(b.fabric)
	ddrW := b.kernel.Waker(ddrfsm)
	for i := range w.HBusReq {
		w.HBusReq[i].Notify(arbW)
		w.HBusReq[i].Notify(fabW)
		w.HBusReq[i].Notify(ddrW)
	}
	w.GrantIdx.Notify(fabW)
	w.GrantIdx.Notify(ddrW)
	w.WBUsed.Notify(b.kernel.Waker(b.wbm))
	return b
}

// done reports whether all workloads drained and the bus quiesced.
func (b *Bus) done() bool {
	for _, m := range b.masters {
		if !m.finished() {
			return false
		}
	}
	return b.fabric.idle()
}

// Run implements platform.Model. The kernel's own budget is relative,
// so the absolute limit is converted here.
func (b *Bus) Run(limit sim.Cycle) platform.Result {
	if limit == 0 {
		limit = platform.DefaultMaxCycles
	}
	_, ok := b.kernel.RunUntil(b.done, limit.SubFloor(b.kernel.Now()))
	if b.wave != nil {
		b.wave.flush()
	}
	return b.plat.Finish(b.kernel.Now(), ok)
}

// Step advances the simulation a single cycle; exposed for directed
// protocol tests.
func (b *Bus) Step() { b.kernel.Step() }

// Now returns the current simulation cycle.
func (b *Bus) Now() sim.Cycle { return b.kernel.Now() }

// Mem exposes the backing store for end-to-end data checks.
func (b *Bus) Mem() *memmodel.Memory { return b.plat.Mem }

// Engine exposes the DDR engine (stats, bank state) for tests.
func (b *Bus) Engine() *ddr.Engine { return b.plat.Engine }

// LastRead returns the payload of master m's most recent completed
// read.
func (b *Bus) LastRead(m int) []byte { return b.masters[m].lastRead }
