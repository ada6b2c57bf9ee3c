// Package tlm implements the AHB+ transaction-level model — the
// paper's contribution. It is method-based: masters interact with the
// bus through transaction calls rather than signal wiggling, and the
// model advances by calling its own next round directly: it never has
// more than two things pending — the next arbitration round and one
// write-buffer drain completion — so Bus.Run picks the earlier of two
// cycle slots and skips every quiescent cycle in between, with no event
// queue underneath. Per-transaction timing is computed
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
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
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
	plat platform.Platform
	p    config.Params
	size amba.Size
	chk  *check.Checker

	masters []*mState
	wb      wbState

	// The agenda: the current cycle and the only two things that can be
	// pending, each the cycle it is due (CycleMax = nothing armed).
	now       sim.Cycle
	nextArbAt sim.Cycle // next arbitration round
	wbDoneAt  sim.Cycle // write-buffer drain completion

	// Arbitration window state of the most recent transaction.
	lastA, lastL sim.Cycle
	floor        sim.Cycle // earliest next arbitration cycle
	lastGrant    int
	served       []uint64
	totalServed  uint64
	txnID        uint64
	maxDone      sim.Cycle
	ddrCap       uint64

	// Reused arbitration-round scratch (method-based TLM hot path).
	ctx      arb.Context
	reqsBuf  []arb.Request
	portsBuf []int
}

// New assembles the TLM around the shared platform. It panics on
// invalid configuration (see platform.Build).
func New(cfg platform.Config) *Bus {
	pl := platform.Build(cfg)
	n := len(cfg.Gens)
	b := &Bus{
		plat:      pl,
		p:         cfg.Params,
		size:      amba.SizeForBytes(cfg.Params.BusBytes),
		chk:       cfg.Checker,
		lastGrant: -1,
		nextArbAt: sim.CycleMax,
		wbDoneAt:  sim.CycleMax,
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
		if m.pending {
			b.scheduleArb(m.rv) // the first round: the earliest initial request
		}
	}
	return b
}

// wbIndex is the write-buffer pseudo-master port number.
func (b *Bus) wbIndex() int { return len(b.masters) }

// fetch pulls master m's next request and marks it pending from its
// visibility cycle m.rv onward. prevDone is the completion cycle of
// the previous transaction (0 and first=true for the initial fetch).
// Arming the arbitration round that will see the new request is the
// caller's job (arbEvent folds m.rv into the next round) — there is no
// per-request event, which is a large part of the method-based model's
// speed.
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

// scheduleArb arms the next arbitration round no earlier than the
// window floor and the given cycle; an earlier round already armed
// stands. Arming in the past panics: it indicates a causality bug in
// the model.
func (b *Bus) scheduleArb(from sim.Cycle) {
	t := sim.MaxCycle(b.floor, from)
	if t < b.now {
		panic("tlm: arbitration round armed in the past")
	}
	if t < b.nextArbAt {
		b.nextArbAt = t
	}
}

// deliverHints applies BI messages due by the cutoff cycle to the
// controller, each at its true delivery time — the pin-accurate fabric
// polls the link every cycle, so its hints always land at their due
// cycle, and the TLM must match.
func (b *Bus) deliverHints(upTo sim.Cycle) {
	for d, ok := b.plat.Link.Pop(upTo); ok; d, ok = b.plat.Link.Pop(upTo) {
		b.plat.Engine.Hint(d.At, d.Msg.Addr, d.Msg.Write)
	}
}

// arbEvent is one arbitration round at its armed cycle. It also arms
// the round after it, from what its own scan of the ports has seen.
func (b *Bus) arbEvent(now sim.Cycle) {
	b.nextArbAt = sim.CycleMax
	// The pin-accurate fabric delivers hints after the arbiter has
	// evaluated within a cycle, so at cycle `now` the arbiter observes
	// controller state including hints due through now-1 only.
	b.deliverHints(now.SubFloor(1))

	// Collect the requests visible this cycle into reused buffers; next
	// is the earliest cycle a request not yet visible becomes so.
	reqs := b.reqsBuf[:0]
	ports := b.portsBuf[:0]
	next := sim.CycleMax
	for i, m := range b.masters {
		if !m.pending {
			continue
		}
		if m.rv > now {
			next = sim.MinCycle(next, m.rv)
			continue
		}
		reqs = append(reqs, arb.Request{
			Master: i, Addr: m.cur.Addr, Write: m.cur.Write,
			Beats: m.cur.Beats, Since: m.rv,
		})
		ports = append(ports, i)
	}
	if b.wb.pending && len(b.wb.queue) > 0 {
		if b.wb.rv > now {
			next = sim.MinCycle(next, b.wb.rv)
		} else {
			front := b.wb.queue[0]
			reqs = append(reqs, arb.Request{
				Master: b.wbIndex(), Addr: front.addr, Write: true,
				Beats: front.beats, Since: b.wb.rv, IsWriteBuf: true,
			})
			ports = append(ports, b.wbIndex())
		}
	}
	b.reqsBuf, b.portsBuf = reqs, ports
	if len(reqs) == 0 {
		if next != sim.CycleMax {
			b.scheduleArb(next)
		}
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
	port := ports[win]
	b.grant(now, port, reqs[win])

	// Arm the next round for the earliest request still or newly
	// pending: the winner has fetched its next request, a posted write
	// may have woken the write buffer (its own drain grant leaves it not
	// pending), and a loser of this round is visible again next cycle.
	if port < len(b.masters) && b.masters[port].pending {
		next = sim.MinCycle(next, b.masters[port].rv)
	}
	if b.wb.pending {
		next = sim.MinCycle(next, b.wb.rv)
	}
	if len(reqs) > 1 {
		next = now + 1
	}
	if next != sim.CycleMax {
		b.scheduleArb(next)
	}
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
	// The record is filled field by field: a composite literal assigned
	// to an address-taken variable is built in a temporary and then
	// block-copied, once per transaction.
	var rec trace.Record
	rec.ID, rec.Master, rec.Addr, rec.Write, rec.Beats = b.txnID, port, req.Addr, req.Write, req.Beats
	rec.Req, rec.Grant, rec.FirstData, rec.Done, rec.Kind = req.Since, grantVis, first, last, kind
	b.plat.Complete(&rec, erred)
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
	// completion time); the write buffer's completion goes on the agenda
	// because its re-request depends on the queue length at drain end,
	// which posted writes granted in the meantime can change.
	if isWB {
		b.wbDoneAt = last
	} else {
		m := b.masters[port]
		m.pending = false
		b.fetch(m, last, false)
	}
}

// wbDrainDone is the write-buffer drain completion at cycle done.
func (b *Bus) wbDrainDone(done sim.Cycle) {
	b.wbDoneAt = sim.CycleMax
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

// writePayload records the master's deterministic pattern
// (memmodel.PatternByte) as written to memory, datapath abstracted: the
// store materialises the bytes only if the memory image is observed.
// Reads have no TLM-side consumer — the model exposes no read-data port
// — so the read datapath is elided entirely, exactly the "highly
// abstracted data path" the paper prescribes; write data is kept so
// cross-model memory-image checks hold.
func (b *Bus) writePayload(port int, addr uint32, beats int) {
	b.plat.Mem.WritePattern(port, addr, beats*b.size.Bytes())
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

// Run implements platform.Model. It is the whole execution engine:
// take the earlier agenda slot, set the clock to it and call its round,
// until the agenda is empty or its next entry lies beyond the limit. On
// a tie the drain completion runs first — the order the two were armed
// in, since a drain is always armed before any round it can tie with;
// the round then sees the write buffer's re-request and, if a refresh
// vetoes it, arms one successor where the other order would arm two.
// A limit at or below Now() runs nothing and leaves the clock alone.
func (b *Bus) Run(limit sim.Cycle) platform.Result {
	if limit == 0 {
		limit = platform.DefaultMaxCycles
	}
	for {
		at := sim.MinCycle(b.wbDoneAt, b.nextArbAt)
		if at == sim.CycleMax {
			break
		}
		if at > limit {
			b.now = sim.MaxCycle(b.now, limit)
			break
		}
		b.now = at
		if b.wbDoneAt <= b.nextArbAt {
			b.wbDrainDone(at)
		} else {
			b.arbEvent(at)
		}
	}
	completed := b.done() && b.nextArbAt == sim.CycleMax
	cycles := b.maxDone + 1 // last completion + 1
	if !completed && b.now > b.maxDone {
		cycles = b.now
	}
	return b.plat.Finish(cycles, completed)
}

// Now returns the current simulation cycle.
func (b *Bus) Now() sim.Cycle { return b.now }

// Mem exposes the backing store for end-to-end data checks.
func (b *Bus) Mem() *memmodel.Memory { return b.plat.Mem }

// Engine exposes the DDR engine for tests.
func (b *Bus) Engine() *ddr.Engine { return b.plat.Engine }
