package rtl

import (
	"repro/internal/bi"
	"repro/internal/check"
	"repro/internal/ddr"
	"repro/internal/sim"
)

// ddrFSMComp is the cycle-stepped view of the DDRC bank state machines.
// The paper models the DDRC FSM "as accurate as register transfer
// level" in its pin-accurate model; here each bank's FSM state is
// sampled and legality-checked every bus cycle, the per-cycle cost a
// signal-level DDRC simulation pays. The TLM consults the same engine
// purely as a timing oracle and skips this work — one of the structural
// sources of its speedup.
type ddrFSMComp struct {
	k    *sim.Kernel
	eng  *ddr.Engine
	chk  *check.Checker
	w    *Wires   // observed for the sleep decision
	link *bi.Link // in-flight hints force the FSM to keep sampling
	prev []ddr.BankState

	// Registered controller state: per-bank FSM state and open-row
	// registers, per-bank transient-phase down-counters, and the
	// refresh-interval down-counter. The next-state logic runs every
	// cycle; a register is driven only when its value changes (an RTL
	// flop re-driven with its own value commits the same state), which
	// for the refresh counter is every cycle.
	stateR   []*sim.Reg[ddr.BankState]
	rowR     []*sim.Reg[uint32]
	cntR     []*sim.Reg[int]
	refCntR  *sim.Reg[int]
	trefi    int
	maxPhase int
}

func newDDRFSM(k *sim.Kernel, eng *ddr.Engine, chk *check.Checker, w *Wires, link *bi.Link) *ddrFSMComp {
	bank := k.Bank()
	d := &ddrFSMComp{
		k:       k,
		eng:     eng,
		chk:     chk,
		w:       w,
		link:    link,
		prev:    make([]ddr.BankState, eng.Banks()),
		refCntR: sim.NewReg(int(eng.T.TREFI)),
		trefi:   int(eng.T.TREFI),
	}
	// The longest transient phase any down-counter must cover.
	d.maxPhase = int(eng.T.TRCD)
	for _, t := range []sim.Cycle{eng.T.TRP, eng.T.TRFC, eng.T.TRC} {
		if int(t) > d.maxPhase {
			d.maxPhase = int(t)
		}
	}
	for i := 0; i < eng.Banks(); i++ {
		d.stateR = append(d.stateR, sim.NewReg(ddr.BankIdle))
		d.rowR = append(d.rowR, sim.NewReg[uint32](0))
		d.cntR = append(d.cntR, sim.NewReg(0))
		bank.Add(d.stateR[i])
		bank.Add(d.rowR[i])
		bank.Add(d.cntR[i])
	}
	bank.Add(d.refCntR)
	return d
}

// Name implements sim.Component.
func (d *ddrFSMComp) Name() string { return "ddr-fsm" }

// legalTransition encodes the bank FSM edge relation at one-cycle
// sampling granularity (same-state self loops are always legal).
func legalTransition(from, to ddr.BankState) bool {
	if from == to {
		return true
	}
	switch from {
	case ddr.BankIdle:
		// Activate starts, or a refresh closes the (already closed)
		// bank into its recovery window.
		return to == ddr.BankActivating || to == ddr.BankPrecharging
	case ddr.BankActivating:
		// Activation completes, or a refresh interrupts it.
		return to == ddr.BankActive || to == ddr.BankPrecharging
	case ddr.BankActive:
		// Precharge starts, or a new in-bank operation makes the bank
		// transient again (column busy / row switch via the engine).
		return to == ddr.BankPrecharging || to == ddr.BankActivating
	case ddr.BankPrecharging:
		// Precharge completes; a back-to-back activate may begin in the
		// same sampling window.
		return to == ddr.BankIdle || to == ddr.BankActivating
	}
	return false
}

// Eval implements sim.Component.
func (d *ddrFSMComp) Eval(now sim.Cycle) {
	// The refresh timer is part of the controller FSM: tick it every
	// cycle so refresh windows materialize eagerly, the way hardware
	// behaves.
	d.eng.Tick(now)
	if d.trefi > 0 {
		c := d.refCntR.Get() - 1
		if c <= 0 {
			c = d.trefi
		}
		d.refCntR.Set(c)
	}
	for b := 0; b < d.eng.Banks(); b++ {
		st := d.eng.BankState(b, now)
		if st != d.prev[b] {
			if !legalTransition(d.prev[b], st) {
				d.chk.Assert(false,
					"bank %d illegal FSM transition %v -> %v at %v", b, d.prev[b], st, now)
			}
			d.prev[b] = st
			// Entering a transient phase reloads the phase counter.
			if st == ddr.BankActivating || st == ddr.BankPrecharging {
				d.cntR[b].Set(d.maxPhase)
			}
		}
		// Per-cycle register updates, as the controller flops would
		// switch: FSM state, open row, and the transient down-counter.
		if d.stateR[b].Get() != st {
			d.stateR[b].Set(st)
		}
		cnt := d.cntR[b].Get()
		switch st {
		case ddr.BankActivating, ddr.BankPrecharging:
			if cnt > 0 {
				d.cntR[b].Set(cnt - 1)
			}
			if cnt < 0 {
				d.chk.Assert(false, "bank %d phase counter underflow", b)
			}
		default:
			if cnt != 0 {
				d.cntR[b].Set(0)
			}
		}
		if row, open := d.eng.OpenRow(b); open {
			if d.rowR[b].Get() != row {
				d.rowR[b].Set(row)
			}
		}
	}
	d.sleepIfSettled(now)
}

// sleepIfSettled sleeps until the next refresh when nothing can move a
// bank: no request is visible (requests lead to arbitration, whose
// permission probe and eventual access touch the engine), no grant or
// transaction is in flight once the cycle commits, no BI hint is still
// travelling, and every bank is settled from the next cycle on. Bank
// state then holds still until the next engine call — which the
// conditions above exclude — or the refresh timer. The legality checker
// sees the same transition sequence, merely without the self-loop
// samples in between. The FSM evaluates after the arbiter and the
// fabric, the only users of the BI link and the engine; GrantIdx and
// the request lines are watched (New), BusOwner is predicted.
func (d *ddrFSMComp) sleepIfSettled(now sim.Cycle) {
	if d.w.GrantIdx.Get() >= 0 || !d.w.busFreeAfter(now) || d.w.requested() || d.link.Pending() > 0 {
		return
	}
	for b := 0; b < d.eng.Banks(); b++ {
		switch d.eng.BankState(b, now+1) {
		case ddr.BankActivating, ddr.BankPrecharging:
			return
		}
	}
	d.k.Sleep(d.eng.NextRefresh())
}
