package rtl

import (
	"repro/internal/amba"
	"repro/internal/arb"
	"repro/internal/bi"
	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/platform"
	"repro/internal/sim"
)

// arbiterComp watches the request lines and, on the cycles whose result
// the grant register can load, runs the shared seven-filter pipeline
// once to pick the next bus owner. With request pipelining enabled the
// window opens while the previous transaction is still streaming data
// (cycle L-1), which is the AHB+ latency-hiding scheme; the winning
// request is simultaneously announced to the DDRC over BI so the
// controller can prepare the target bank.
type arbiterComp struct {
	k          *sim.Kernel
	w          *Wires
	pipe       *arb.Pipeline
	link       *bi.Link
	chk        *check.Checker
	pipelining bool
	reqsBuf    []arb.Request
	portsBuf   []int
	ctx        arb.Context // persistent round context (no per-cycle rebuild)

	grantedTo int       // unconsumed grant (-1 none)
	ldSeen    sim.Cycle // BusLastData value the window flag refers to
	arbDone   bool      // a busy-window arbitration already granted
	lastGrant int       // round-robin memory (master index)

	served      []uint64 // beats granted per master (bandwidth window)
	totalServed uint64
}

func newArbiter(k *sim.Kernel, w *Wires, pl *platform.Platform, p config.Params, chk *check.Checker) *arbiterComp {
	bank := k.Bank()
	a := &arbiterComp{
		k: k, w: w, pipe: pl.Pipeline, link: pl.Link, chk: chk, pipelining: p.Pipelining,
		grantedTo: -1, lastGrant: -1,
		served: make([]uint64, w.NMasters+1),
	}
	for i := range w.HGrant {
		bank.Add(w.HGrant[i])
	}
	bank.Add(w.GrantIdx)
	a.ctx = arb.Context{
		Regs:             pl.Regs,
		Provider:         pl.Provider,
		Served:           a.served,
		WBCap:            p.WriteBufferDepth,
		UrgencyThreshold: sim.Cycle(p.UrgencyThreshold),
	}
	a.ctx.PrecomputeQoS()
	return a
}

// Name implements sim.Component.
func (a *arbiterComp) Name() string { return "arbiter" }

// Eval implements sim.Component. The arbiter sleeps when no request
// line is asserted, no grant is outstanding and the bus is unowned once
// the cycle commits. Commits on any HBUSREQ line (wired in New) wake
// it, so it evaluates again on exactly the cycle a request first
// becomes visible, and drop a request made in the cycle a line moves.
func (a *arbiterComp) Eval(now sim.Cycle) {
	w := a.w

	// Per-cycle protocol property: the grant vector is one-hot or zero.
	granted := 0
	for i := range w.HGrant {
		if w.HGrant[i].Get() {
			granted++
		}
	}
	if granted <= 1 {
		a.chk.PropertyOK()
	} else {
		a.chk.Property(now, "grant-one-hot", false, "%d grants asserted", granted)
	}

	// Detect consumption of an outstanding grant: the granted master's
	// address phase is visible this cycle. Drop the grant lines so a
	// stale grant can never authorize an unarbitrated transaction, and
	// skip arbitration for this cycle — the fabric is capturing the new
	// transaction right now, so BusOwner does not yet reflect it.
	if a.grantedTo >= 0 && w.HTransM[a.grantedTo].Get() == amba.TransNonSeq {
		w.HGrant[a.grantedTo].Set(false)
		w.GrantIdx.Set(-1)
		a.grantedTo = -1
		return
	}

	// One busy-window arbitration per transaction: reopen the window
	// when the fabric publishes a new completion cycle.
	if ld := w.BusLastData.Get(); ld != a.ldSeen {
		a.ldSeen = ld
		a.arbDone = false
	}

	if a.grantedTo >= 0 {
		return // a grant is in flight; nothing to do
	}
	owner := w.BusOwner.Get()
	busyWindow := a.pipelining && owner >= 0 && !a.arbDone && now+1 >= a.ldSeen
	if owner >= 0 && !busyWindow {
		if w.busFreeAfter(now) && !w.requested() {
			a.k.Sleep(sim.CycleMax)
		}
		return
	}

	// The window is open: sample the request lines for this round.
	reqs := a.reqsBuf[:0]
	ports := a.portsBuf[:0]
	for i := 0; i <= w.NMasters; i++ {
		if !w.HBusReq[i].Get() {
			continue
		}
		info := w.ReqInfo[i]
		reqs = append(reqs, arb.Request{
			Master:     i,
			Addr:       info.addr,
			Write:      info.write,
			Beats:      info.beats,
			Since:      info.since,
			IsWriteBuf: i == w.wbIndex(),
		})
		ports = append(ports, i)
	}
	a.reqsBuf, a.portsBuf = reqs, ports
	if len(reqs) == 0 {
		if w.busFreeAfter(now) {
			a.k.Sleep(sim.CycleMax)
		}
		return
	}
	ctx := &a.ctx
	ctx.Now = now
	ctx.Reqs = reqs
	ctx.WBUsed = w.WBUsed.Get()
	ctx.TotalBeats = a.totalServed
	ctx.LastGrant = a.lastGrant
	win, ok := a.pipe.Select(ctx)
	if !ok {
		return // permission veto (refresh window); retry next cycle
	}
	g := ports[win]
	a.chk.Property(now, "grant-implies-request", w.HBusReq[g].Get(),
		"granted master %d without a visible request", g)
	for i := range w.HGrant {
		w.HGrant[i].Set(i == g)
	}
	w.GrantIdx.Set(g)
	a.grantedTo = g
	a.lastGrant = g
	if owner >= 0 {
		a.arbDone = true
	}
	a.served[g] += uint64(reqs[win].Beats)
	a.totalServed += uint64(reqs[win].Beats)
	// Announce the winner to the DDRC over BI (bank-interleaving hint).
	a.link.Send(now, bi.NextTxn{
		Master: g,
		Addr:   reqs[win].Addr,
		Write:  reqs[win].Write,
		Beats:  reqs[win].Beats,
	})
}
