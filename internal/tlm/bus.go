// Package tlm implements the AHB+ transaction-level model — the
// paper's contribution. It is method-based: masters interact with the
// bus through transaction calls rather than signal wiggling, and the
// simulator advances directly from event to event on a cycle-keyed
// wheel, skipping quiescent cycles. Per-transaction timing is computed
// arithmetically from the same timing contract the pin-accurate model
// (internal/rtl) implements signal by signal:
//
//	request visible  rv = assert+1
//	arbitration      T  = max(window floor, rv)
//	grant visible    T+1
//	address phase    A  = T+2
//	memory access    A+1 (shared DDR engine)
//	data beats       F..L from the engine (posted writes: A+1..A+beats)
//
// window floor: with request pipelining, max(L-1, A+1) of the previous
// transaction; without it, L+1.
//
// Remaining abstractions (the deliberate sources of the small TLM
// error the paper reports): write-buffer occupancy is sampled at
// arbitration instants rather than per cycle, and queue pushes/pops
// take effect at the arbitration event rather than at the address
// phase two cycles later.
package tlm

import (
	"repro/internal/amba"
	"repro/internal/arb"
	"repro/internal/bi"
	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/ddr"
	"repro/internal/memmodel"
	"repro/internal/platform"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Config and Result are the shared testbench's: one description drives
// both models and both report the same shape.
type (
	Config = platform.Config
	Result = platform.Result
)

// mState is the method-based master port state.
type mState struct {
	gen      traffic.Generator
	cur      traffic.Req
	rv       sim.Cycle // request visible cycle
	pending  bool
	finished bool
}

// wbEntry is one posted write awaiting drain.
type wbEntry struct {
	addr  uint32
	beats int
	// capA is the address-phase cycle of the posting transaction: the
	// entry becomes visible to the write-buffer pseudo-master one cycle
	// later, exactly as the pin-accurate WBUsed register behaves.
	capA sim.Cycle
}

// wbState is the write-buffer pseudo-master state.
type wbState struct {
	queue    []wbEntry
	pending  bool
	rv       sim.Cycle
	draining bool
}

// Bus is the AHB+ transaction-level model.
type Bus struct {
	plat   platform.Platform
	p      config.Params
	size   amba.Size
	sch    *sim.Scheduler
	chk    *check.Checker
	tracer *trace.Recorder

	masters []*mState
	wb      wbState

	// Arbitration window state of the most recent transaction.
	lastA, lastL sim.Cycle
	floor        sim.Cycle // earliest next arbitration cycle
	nextArbAt    sim.Cycle // scheduled arbitration event (CycleMax none)
	lastGrant    int
	served       []uint64
	totalServed  uint64
	txnID        uint64
	maxDone      sim.Cycle
	wbuf         []byte
	arbEv        sim.EventID // the armed arbitration event (cancellable)
	ddrCap       uint64

	// Reused arbitration-round scratch (method-based TLM hot path).
	ctx      arb.Context
	reqsBuf  []arb.Request
	portsBuf []int
}

// New assembles the TLM around the shared platform. It panics on
// invalid configuration (see platform.Build).
func New(cfg Config) *Bus {
	pl := platform.Build(cfg)
	n := len(cfg.Gens)
	b := &Bus{
		plat:      pl,
		p:         cfg.Params,
		size:      amba.SizeForBytes(cfg.Params.BusBytes),
		sch:       sim.NewScheduler(),
		chk:       cfg.Checker,
		tracer:    cfg.Tracer,
		lastGrant: -1,
		nextArbAt: sim.CycleMax,
		served:    make([]uint64, n+1),
	}
	b.ddrCap = cfg.Params.AddrMap.Capacity()
	b.ctx = arb.Context{
		Regs:             pl.Regs,
		Provider:         pl.Provider,
		Served:           b.served,
		WBCap:            cfg.Params.WriteBufferDepth,
		UrgencyThreshold: sim.Cycle(cfg.Params.UrgencyThreshold),
	}
	b.ctx.PrecomputeQoS()
	for _, g := range cfg.Gens {
		m := &mState{gen: g}
		b.masters = append(b.masters, m)
		b.fetch(m, 0, true)
	}
	// Arm the first arbitration round for the earliest initial request.
	b.rescheduleForPending(0)
	return b
}

// wbIndex is the write-buffer pseudo-master port number.
func (b *Bus) wbIndex() int { return len(b.masters) }

// fetch pulls master m's next request and marks it pending from its
// visibility cycle m.rv onward. prevDone is the completion cycle of
// the previous transaction (0 and first=true for the initial fetch).
// Arbitration scheduling for the new request is handled by the
// caller's rescheduleForPending pass — there is no per-request event,
// which is a large part of the method-based model's speed.
func (b *Bus) fetch(m *mState, prevDone sim.Cycle, first bool) {
	req, ok := m.gen.Next(prevDone)
	if !ok {
		m.finished = true
		return
	}
	if req.Beats <= 0 {
		b.chk.Assert(false, "generator %s produced empty burst", m.gen.Name())
	}
	m.cur = req
	assert := req.At
	if !first {
		assert = sim.MaxCycle(req.At, prevDone+1)
	}
	m.rv = assert + 1
	m.pending = true
}

// arbEventFn dispatches the arbitration event without a per-schedule
// closure: the owning Bus rides along as the event's owner word.
func arbEventFn(now sim.Cycle, owner any, _ uint64) {
	owner.(*Bus).arbEvent(now)
}

// scheduleArb (re)schedules the arbitration event no earlier than the
// window floor and the given cycle. A superseded later event is
// cancelled rather than left to fire as a stale no-op.
func (b *Bus) scheduleArb(from sim.Cycle) {
	t := sim.MaxCycle(b.floor, from)
	if t >= b.nextArbAt {
		return // an earlier or equal arbitration is already scheduled
	}
	if b.nextArbAt != sim.CycleMax {
		b.sch.Cancel(b.arbEv)
	}
	b.nextArbAt = t
	b.arbEv = b.sch.Post(t, arbEventFn, b, 0)
}

// deliverHints applies BI messages due by the cutoff cycle to the
// controller, each at its true delivery time — the pin-accurate fabric
// polls the link every cycle, so its hints always land at their due
// cycle, and the TLM must match.
func (b *Bus) deliverHints(upTo sim.Cycle) {
	for _, d := range b.plat.Link.DeliverUpTo(upTo) {
		b.plat.Engine.Hint(d.At, d.Msg.Addr, d.Msg.Write)
	}
}

// arbEvent is one arbitration round at its scheduled cycle.
func (b *Bus) arbEvent(now sim.Cycle) {
	if now != b.nextArbAt {
		return // superseded by a rescheduled round
	}
	b.nextArbAt = sim.CycleMax
	if now < b.floor {
		// A stale event from before the floor moved; reschedule.
		b.scheduleArb(b.floor)
		return
	}
	// The pin-accurate fabric delivers hints after the arbiter has
	// evaluated within a cycle, so at cycle `now` the arbiter observes
	// controller state including hints due through now-1 only.
	b.deliverHints(now.SubFloor(1))

	// Collect the requests visible this cycle into reused buffers.
	reqs := b.reqsBuf[:0]
	ports := b.portsBuf[:0]
	for i, m := range b.masters {
		if m.pending && m.rv <= now {
			reqs = append(reqs, arb.Request{
				Master: i, Addr: m.cur.Addr, Write: m.cur.Write,
				Beats: m.cur.Beats, Since: m.rv,
			})
			ports = append(ports, i)
		}
	}
	if b.wb.pending && b.wb.rv <= now && len(b.wb.queue) > 0 {
		front := b.wb.queue[0]
		reqs = append(reqs, arb.Request{
			Master: b.wbIndex(), Addr: front.addr, Write: true,
			Beats: front.beats, Since: b.wb.rv, IsWriteBuf: true,
		})
		ports = append(ports, b.wbIndex())
	}
	b.reqsBuf, b.portsBuf = reqs, ports
	if len(reqs) == 0 {
		b.rescheduleForPending(now)
		return
	}

	b.ctx.Now = now
	b.ctx.Reqs = reqs
	b.ctx.WBUsed = len(b.wb.queue)
	b.ctx.TotalBeats = b.totalServed
	b.ctx.LastGrant = b.lastGrant
	win, ok := b.plat.Pipeline.Select(&b.ctx)
	if !ok {
		// Permission veto (refresh window). The pin-accurate arbiter
		// retries every cycle; no retry can succeed before the window
		// clears, so jump straight to the clear cycle — the grant lands
		// on the identical cycle with the no-op rounds elided.
		b.scheduleArb(sim.MaxCycle(b.plat.Engine.RefreshClear(now+1), now+1))
		return
	}
	b.grant(now, ports[win], reqs[win])
	b.rescheduleForPending(now + 1)
}

// rescheduleForPending arms the next arbitration for the earliest
// pending request, if any.
func (b *Bus) rescheduleForPending(now sim.Cycle) {
	earliest := sim.CycleMax
	for _, m := range b.masters {
		if m.pending && m.rv < earliest {
			earliest = m.rv
		}
	}
	if b.wb.pending && len(b.wb.queue) > 0 && b.wb.rv < earliest {
		earliest = b.wb.rv
	}
	if earliest == sim.CycleMax {
		return
	}
	b.scheduleArb(sim.MaxCycle(earliest, now))
}

// grant times the winning transaction and commits all bus state.
func (b *Bus) grant(t sim.Cycle, port int, req arb.Request) {
	grantVis := t + 1
	a := t + 2
	// Protocol property, mirroring the pin-accurate fabric's capture
	// check: the burst must be AHB-legal.
	if err := amba.ValidateBurst(req.Addr, amba.FixedBurstFor(req.Beats, false), b.size, req.Beats); err == nil {
		b.chk.PropertyOK()
	} else {
		b.chk.Property(t, "burst-legal", false, "master %d drove an illegal burst: %v", port, err)
	}
	b.txnID++
	b.lastGrant = port
	b.served[port] += uint64(req.Beats)
	b.totalServed += uint64(req.Beats)

	// Announce over BI for bank interleaving (delivered before the next
	// engine access, mirroring the fabric's per-cycle delivery).
	b.plat.Link.Send(t, bi.NextTxn{Master: port, Addr: req.Addr, Write: req.Write, Beats: req.Beats})

	isWB := port == b.wbIndex()
	var first, last sim.Cycle
	var kind string
	erred := false
	inDDR := uint64(req.Addr) < b.ddrCap
	switch {
	case !inDDR && b.p.SRAM.Contains(req.Addr):
		// On-chip SRAM slave: fixed wait states, then one beat/cycle.
		first = a + 1 + sim.Cycle(b.p.SRAM.WaitStates)
		last = first + sim.Cycle(req.Beats-1)
		kind = "sram"
		if req.Write {
			b.writePayload(port, req.Addr, req.Beats)
		}
	case !inDDR:
		// Unmapped: single ERROR beat from the default slave.
		first = a + 1
		last = a + 1
		erred = true
		kind = "error"
	case req.Write && !isWB && b.p.WriteBufferDepth > 0 && len(b.wb.queue) < b.p.WriteBufferDepth:
		// Posted write: absorbed at bus speed.
		first = a + 1
		last = a + sim.Cycle(req.Beats)
		kind = "posted"
		b.wb.queue = append(b.wb.queue, wbEntry{addr: req.Addr, beats: req.Beats, capA: a})
		b.writePayload(port, req.Addr, req.Beats)
		b.plat.Stats.WBPosted++
		if len(b.wb.queue) > b.plat.Stats.WBPeak {
			b.plat.Stats.WBPeak = len(b.wb.queue)
		}
		if !b.wb.pending && !b.wb.draining {
			b.wb.pending = true
			b.wb.rv = a + 2
		}
	default:
		if req.Write && !isWB && b.p.WriteBufferDepth > 0 {
			b.plat.Stats.WBFullStalls++
		}
		// The fabric delivers hints due through A at the top of the
		// capture cycle, before it consults the engine.
		b.deliverHints(a)
		res := b.plat.Engine.Access(a+1, req.Addr, req.Write, req.Beats)
		first, last = res.FirstData, res.LastData
		kind = res.Kind.String()
		if req.Write {
			if isWB {
				b.chk.Assert(len(b.wb.queue) > 0, "write-buffer drain with empty queue")
				b.wb.queue = append(b.wb.queue[:0], b.wb.queue[1:]...)
				b.wb.pending = false
				b.wb.draining = true
				b.plat.Stats.WBDrained++
			} else {
				b.writePayload(port, req.Addr, req.Beats)
			}
		}
	}

	if first > t {
		b.chk.PropertyOK()
	} else {
		b.chk.Property(t, "data-after-grant", false,
			"txn %d first data %v not after arbitration %v", b.txnID, first, t)
	}

	// Account the completed transaction (its timing is fully known).
	violated := false
	if !isWB {
		violated = b.plat.Tracker.Record(port, req.Since, first)
	}
	wait := grantVis.SubFloor(req.Since)
	lat := first.SubFloor(req.Since)
	beats, bytes := req.Beats, req.Beats*b.size.Bytes()
	if erred {
		beats, bytes = 1, 0
		b.plat.Stats.Masters[port].Errors++
	}
	b.plat.Stats.Masters[port].RecordTxn(req.Write, beats, bytes, wait, lat, violated)
	b.plat.Stats.BusyBeats += uint64(beats)
	if b.tracer != nil {
		b.tracer.Add(trace.Record{
			ID: b.txnID, Master: port, Addr: req.Addr, Write: req.Write, Beats: req.Beats,
			Req: req.Since, Grant: grantVis, FirstData: first, Done: last, Kind: kind,
		})
	}
	if last > b.maxDone {
		b.maxDone = last
	}

	// Move the arbitration window.
	b.lastA, b.lastL = a, last
	if b.p.Pipelining {
		b.floor = sim.MaxCycle(last.SubFloor(1), a+1)
	} else {
		b.floor = last + 1
	}

	// Schedule the port's next activity. A master's next request is
	// computed immediately (generators are pure functions of the
	// completion time); the write buffer needs a completion event
	// because its re-request depends on the queue length at drain end,
	// which posted writes granted in the meantime can change.
	if isWB {
		b.sch.Post(last, wbDrainDoneFn, b, 0)
	} else {
		m := b.masters[port]
		m.pending = false
		b.fetch(m, last, false)
	}
}

// wbDrainDoneFn is the write-buffer drain-completion event.
func wbDrainDoneFn(done sim.Cycle, owner any, _ uint64) {
	b := owner.(*Bus)
	b.wb.draining = false
	if len(b.wb.queue) > 0 {
		b.wb.pending = true
		// The pseudo-master re-asserts one cycle after both the drain
		// completion and the front entry's visibility (its posting
		// transaction's address phase + 1).
		b.wb.rv = sim.MaxCycle(done, b.wb.queue[0].capA) + 2
		b.scheduleArb(b.wb.rv)
	}
}

// writePayload writes the master's deterministic pattern
// (platform.WriteByte) to memory, datapath abstracted.
// Reads have no TLM-side consumer — the model exposes no read-data port
// — so the read datapath is elided entirely, exactly the "highly
// abstracted data path" the paper prescribes; write data is kept so
// cross-model memory-image checks hold.
func (b *Bus) writePayload(port int, addr uint32, beats int) {
	n := beats * b.size.Bytes()
	if cap(b.wbuf) < n {
		b.wbuf = make([]byte, n)
	}
	b.wbuf = b.wbuf[:n]
	// Incremental form of platform.WriteByte over consecutive addresses:
	// +7 per byte, +1 extra whenever the address crosses a 256-byte
	// boundary.
	a := addr
	v := uint32(port)*31 + a*7 + (a >> 8)
	for i := 0; i < n; i++ {
		b.wbuf[i] = byte(v)
		a++
		v += 7
		if a&0xff == 0 {
			v++
		}
	}
	b.plat.Mem.Write(addr, b.wbuf)
}

// done reports whether all workloads and the write buffer drained.
func (b *Bus) done() bool {
	for _, m := range b.masters {
		if !m.finished {
			return false
		}
	}
	return len(b.wb.queue) == 0 && !b.wb.draining
}

// Run implements platform.Model.
func (b *Bus) Run(limit sim.Cycle) Result {
	if limit == 0 {
		limit = platform.DefaultMaxCycles
	}
	b.sch.Run(limit)
	completed := b.done() && b.sch.Pending() == 0
	cycles := b.maxDone + 1 // last completion + 1
	if !completed && b.sch.Now() > b.maxDone {
		cycles = b.sch.Now()
	}
	return b.plat.Finish(cycles, completed)
}

// Now returns the current simulation cycle.
func (b *Bus) Now() sim.Cycle { return b.sch.Now() }

// Mem exposes the backing store for end-to-end data checks.
func (b *Bus) Mem() *memmodel.Memory { return b.plat.Mem }

// Engine exposes the DDR engine for tests.
func (b *Bus) Engine() *ddr.Engine { return b.plat.Engine }

// Tracker exposes QoS outcomes.
func (b *Bus) Tracker() *qos.Tracker { return b.plat.Tracker }
