// Package platform is the shared testbench: everything the
// transaction-level model (internal/tlm) and the pin-accurate model
// (internal/rtl) must agree on OUTSIDE the behaviour they model — the
// description a run is assembled from, the components both buses are
// built around, the account of each finished transaction and the run
// contract they are driven through (the data pattern masters write
// lives with the backing store, in memmodel.PatternByte). The paper's
// accuracy result holds because both models sit under one testbench;
// this package is that testbench, written once, so the two cannot
// drift apart by a comment.
package platform

import (
	"fmt"
	"io"

	"repro/internal/arb"
	"repro/internal/bi"
	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/ddr"
	"repro/internal/memmodel"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// DefaultMaxCycles is the generous cycle cap a limit of 0 selects.
const DefaultMaxCycles sim.Cycle = 50_000_000

// Config describes one simulation to either model.
type Config struct {
	// Params is the shared platform configuration.
	Params config.Params
	// Gens drives the master ports; len(Gens) must equal
	// len(Params.Masters).
	Gens []traffic.Generator
	// Checker receives assertions and property checks (optional).
	Checker *check.Checker
	// Tracer records per-transaction timelines (optional).
	Tracer *trace.Recorder
	// Waveform, when non-nil, receives a VCD dump of the AHB signals.
	// Only the pin-accurate model has signals to dump.
	Waveform io.Writer
}

// Result summarizes a run.
type Result struct {
	// Cycles is the simulated cycle count, directly comparable across
	// the models.
	Cycles sim.Cycle
	// Completed is true when every generator drained and the write
	// buffer emptied before the cycle cap.
	Completed bool
	// Stats is the profile of the run.
	Stats *stats.Bus
}

// Model is the run contract both buses implement.
type Model interface {
	// Run simulates until every workload drains or the ABSOLUTE cycle
	// limit is reached (0 selects DefaultMaxCycles). A later call with a
	// larger limit resumes exactly where the previous one stopped, so a
	// run cut into slices visits the identical event sequence as a
	// single-shot one.
	Run(limit sim.Cycle) Result
	// Now returns the current simulation cycle.
	Now() sim.Cycle
	// Mem exposes the backing store for end-to-end data checks.
	Mem() *memmodel.Memory
}

// Platform holds the components both buses are assembled around. It is
// returned, and held inside each Bus, by value, so the assembly costs
// no allocation of its own and a component is one load away.
type Platform struct {
	// Engine is the DDR controller engine, page policy applied.
	Engine *ddr.Engine
	// Mem is the backing store.
	Mem *memmodel.Memory
	// Link is the BI side-band; Provider answers the arbiter's
	// permission and bank-status queries over it.
	Link     *bi.Link
	Provider *bi.Provider
	// Regs holds one QoS register per traffic master plus, last, the
	// write-buffer pseudo-master as plain NRT.
	Regs []qos.Reg
	// Pipeline is the arbitration filter pipeline.
	Pipeline *arb.Pipeline
	// Stats is the run profile, one named slot per traffic master plus
	// "wbuf" for the write-buffer pseudo-master.
	Stats *stats.Bus

	// tracer, when non-nil, receives every completed transaction;
	// busBytes is the data bus width a beat carries.
	tracer   *trace.Recorder
	busBytes int
}

// Build assembles the shared components. It panics on an invalid
// configuration: static setup errors are programming mistakes,
// mirroring hardware elaboration failure, and externally submitted
// platforms are vetted (spec.Validate, config.Load) before they get
// here.
func Build(cfg Config) Platform {
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	n := len(cfg.Params.Masters)
	if len(cfg.Gens) != n {
		panic(fmt.Errorf("platform: %d generators for %d masters", len(cfg.Gens), n))
	}
	eng := ddr.NewEngine(cfg.Params.DDR, cfg.Params.AddrMap)
	if cfg.Params.ClosedPage {
		eng.Policy = ddr.ClosedPage
	}
	link := bi.NewLink(sim.Cycle(cfg.Params.BILatency))
	link.Enabled = cfg.Params.BIEnabled
	regs := append(cfg.Params.QoSRegs(), qos.Reg{})
	bus := stats.NewBus(n + 1)
	for i := 0; i < n; i++ {
		bus.Masters[i].Name = cfg.Params.Masters[i].Name
	}
	bus.Masters[n].Name = "wbuf"
	return Platform{
		Engine:   eng,
		Mem:      memmodel.New(),
		Link:     link,
		Provider: &bi.Provider{Link: link, PermitFn: eng.Permit, InfoFn: eng.IdleOrOpen},
		Regs:     regs,
		Pipeline: arb.DefaultWith(cfg.Params.Filters),
		Stats:    bus,
		tracer:   cfg.Tracer,
		busBytes: cfg.Params.BusBytes,
	}
}

// Complete accounts one finished transaction, once, from its timeline:
// the master's profile (an ERROR response counts one beat and no
// bytes), the objective test against its QoS register, the data-bus
// occupancy and, when a recorder is attached, the trace. rec is read,
// never retained, so a caller's record can live on its stack.
func (p *Platform) Complete(rec *trace.Record, erred bool) {
	m := &p.Stats.Masters[rec.Master]
	beats, bytes := rec.Beats, rec.Beats*p.busBytes
	if erred {
		beats, bytes = 1, 0
		m.Errors++
	}
	lat := rec.FirstData.SubFloor(rec.Req)
	m.RecordTxn(rec.Write, beats, bytes, rec.Grant.SubFloor(rec.Req), lat, p.Regs[rec.Master].Missed(lat))
	p.Stats.BusyBeats += uint64(beats)
	if p.tracer != nil {
		p.tracer.Add(*rec)
	}
}

// Finish closes a Run call: it stamps the cycle count and copies the
// DDR engine's and the arbitration pipeline's counters into the profile.
func (p *Platform) Finish(cycles sim.Cycle, completed bool) Result {
	p.Stats.Cycles = cycles
	p.Stats.DDR = p.Engine.Stats()
	ps := p.Pipeline.Stats()
	p.Stats.Grants = ps.Grants
	p.Stats.ArbRounds = ps.Rounds
	for k, v := range ps.Decisive {
		p.Stats.FilterDecisive[k] = v
	}
	return Result{Cycles: cycles, Completed: completed, Stats: p.Stats}
}
