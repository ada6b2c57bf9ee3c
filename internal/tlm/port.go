package tlm

import (
	"fmt"

	"repro/internal/amba"
	"repro/internal/config"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Status is the return code of a Port transaction call, mirroring the
// paper's transaction-port protocol ("the transaction port of the
// master calls 'Read(addr, *data, *ctrl)' and receives 'OK'").
type Status uint8

const (
	// OK: the transfer completed successfully.
	OK Status = iota
	// ErrTimeout: the transfer did not complete within the cycle cap.
	ErrTimeout
	// ErrIllegal: the request violated the AHB protocol rules.
	ErrIllegal
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case ErrTimeout:
		return "TIMEOUT"
	case ErrIllegal:
		return "ILLEGAL"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Ctrl carries the per-transaction control information of a Port call
// and returns its timing, the §3.2 "ctrl" argument.
type Ctrl struct {
	// Burst is the AHB burst kind (derived from Beats if zero-valued
	// BurstSingle does not match).
	Burst amba.Burst
	// Beats is the burst length (default 1).
	Beats int
	// ReqCycle is filled with the cycle the request became visible.
	ReqCycle sim.Cycle
	// GrantCycle is filled with the grant-visible cycle.
	GrantCycle sim.Cycle
	// FirstData and Done are filled with the data-phase bounds.
	FirstData, Done sim.Cycle
}

// Port is the interactive master-side transaction port of the AHB+
// TLM: the API of paper §3.2. Each call issues one transaction on a
// dedicated single-master platform and runs the simulation until it
// completes, returning its status and timing. A Port owns its bus; use
// the Bus/Config path with traffic generators for multi-master
// platforms (method-based batch simulation).
type Port struct {
	p      config.Params
	bus    *Bus
	script *traffic.Script
	now    sim.Cycle
}

// NewPort returns a port on a fresh single-master AHB+ platform.
func NewPort(p config.Params) *Port {
	p.Masters = []config.MasterCfg{{Name: "port"}}
	return &Port{p: p}
}

// CheckGrant reports whether the bus would grant this master
// immediately (always true on an otherwise idle single-master bus once
// arbitration latency has passed); it mirrors the paper's CheckGrant()
// port call.
func (pt *Port) CheckGrant() bool { return true }

// Now returns the port's current simulation cycle.
func (pt *Port) Now() sim.Cycle { return pt.now }

// run issues one transaction and advances simulated time.
func (pt *Port) run(addr uint32, write bool, data []byte, ctrl *Ctrl) Status {
	beats := 1
	if ctrl != nil && ctrl.Beats > 0 {
		beats = ctrl.Beats
	}
	burst := amba.FixedBurstFor(beats, false)
	if ctrl != nil && ctrl.Burst != amba.BurstSingle {
		burst = ctrl.Burst
	}
	if amba.ValidateBurst(addr, burst, amba.SizeForBytes(pt.p.BusBytes), beats) != nil {
		return ErrIllegal
	}

	// Each call extends a script-driven single-master bus. Rebuilding
	// per call keeps the port trivially correct; interactive use is not
	// the performance path.
	pt.script = &traffic.Script{Reqs: []traffic.Req{{
		At: pt.now, Addr: addr, Write: write, Burst: burst, Beats: beats,
	}}}
	prevMem := pt.bus
	b := New(platform.Config{Params: pt.p, Gens: []traffic.Generator{pt.script}})
	if prevMem != nil {
		// Carry memory contents across calls.
		b.plat.Mem = prevMem.plat.Mem
	}
	res := b.Run(pt.now + 1_000_000)
	if !res.Completed {
		return ErrTimeout
	}
	pt.bus = b
	m := res.Stats.Masters[0]
	if write {
		if data != nil {
			b.plat.Mem.Write(addr, data)
		}
	} else if data != nil {
		b.plat.Mem.Read(addr, data)
	}
	if ctrl != nil {
		ctrl.Beats = beats
		ctrl.Burst = burst
		ctrl.Done = res.Cycles - 1
		ctrl.FirstData = ctrl.Done - sim.Cycle(beats-1)
		ctrl.ReqCycle = pt.now + 1
		ctrl.GrantCycle = ctrl.ReqCycle + sim.Cycle(m.WaitCycles)
	}
	pt.now = res.Cycles
	return OK
}

// Read performs a read burst at addr into data (sized beats×bus
// width; nil for timing-only). It returns OK and fills ctrl timing on
// success.
func (pt *Port) Read(addr uint32, data []byte, ctrl *Ctrl) Status {
	return pt.run(addr, false, data, ctrl)
}

// Write performs a write burst at addr from data (nil writes the
// deterministic test pattern).
func (pt *Port) Write(addr uint32, data []byte, ctrl *Ctrl) Status {
	return pt.run(addr, true, data, ctrl)
}
