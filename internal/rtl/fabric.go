package rtl

import (
	"fmt"

	"repro/internal/amba"
	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// wbEntry is one posted write waiting in the write buffer. The payload
// is already in memory (the datapath is abstracted, per the paper); the
// entry carries only what the drain needs for timing.
type wbEntry struct {
	addr  uint32
	beats int
}

// curTxn is the fabric's in-flight transaction: the timeline it will
// be accounted by on its final beat, plus its slave response.
type curTxn struct {
	active bool
	erred  bool
	rec    trace.Record
}

// fabricComp is the bus fabric + DDRC slave: it multiplexes the granted
// master's address phase, consults the DDR engine for beat timing,
// drives HREADY/HRDATA, hosts the write buffer, and delivers BI hints
// to the controller.
type fabricComp struct {
	k       *sim.Kernel
	w       *Wires
	plat    *platform.Platform
	chk     *check.Checker
	size    amba.Size
	wbDepth int

	cur    curTxn
	queue  []wbEntry
	txnID  uint64
	rbuf   []byte
	sram   config.SRAMCfg
	ddrCap uint64

	// slotR are the write-buffer FIFO entry registers: one per slot,
	// republished with WBUsed and the front entry on a cycle the queue
	// changed (queueMoved, Eval step 5).
	slotR      []*sim.Reg[wbSlot]
	queueMoved bool
}

// wbSlot is the registered image of one write-buffer FIFO entry.
type wbSlot struct {
	addr  uint32
	beats int
	valid bool
}

func newFabric(k *sim.Kernel, w *Wires, pl *platform.Platform, chk *check.Checker,
	size amba.Size, wbDepth int, sram config.SRAMCfg) *fabricComp {
	f := &fabricComp{
		k: k, w: w, plat: pl, chk: chk, size: size, wbDepth: wbDepth,
		sram: sram, ddrCap: pl.Engine.Map.Capacity(),
	}
	bank := k.Bank()
	bank.Add(w.HReady)
	bank.Add(w.HResp)
	bank.Add(w.HRData)
	bank.Add(w.BusOwner)
	bank.Add(w.BusLastData)
	bank.Add(w.WBUsed)
	bank.Add(w.WBFrontA)
	bank.Add(w.WBFrontLen)
	for i := 0; i < wbDepth; i++ {
		r := sim.NewReg(wbSlot{})
		f.slotR = append(f.slotR, r)
		bank.Add(r)
	}
	return f
}

// Name implements sim.Component.
func (f *fabricComp) Name() string { return "fabric" }

// Eval implements sim.Component.
func (f *fabricComp) Eval(now sim.Cycle) {
	w := f.w

	// 1. Deliver due BI hints to the memory controller.
	for d, ok := f.plat.Link.Pop(now); ok; d, ok = f.plat.Link.Pop(now) {
		f.plat.Engine.Hint(d.At, d.Msg.Addr, d.Msg.Write)
	}

	// 2. Complete the in-flight transaction on its final beat.
	if f.cur.active && now == f.cur.rec.Done {
		f.finish()
	}

	// 3. Capture a granted master's address phase.
	if g := w.GrantIdx.Get(); g >= 0 && w.HTransM[g].Get() == amba.TransNonSeq {
		f.capture(now, g)
	}

	// 4. Drive the slave-side signals for the (possibly new) current
	// transaction. Re-drives of an unchanged value are elided: the
	// committed value is identical either way, and skipping the commit
	// avoids waking components that watch these registers.
	if c := &f.cur; c.active {
		next := now + 1
		inBeats := next >= c.rec.FirstData && next <= c.rec.Done
		if w.HReady.Get() != inBeats {
			w.HReady.Set(inBeats)
		}
		if inBeats && !c.rec.Write && !c.erred {
			// The beat's word comes from the payload read at capture: no
			// write lands before the last beat, since a second capture
			// while this transaction is active fails an assertion.
			off := int(next-c.rec.FirstData) * f.size.Bytes()
			var word uint32
			for j := 0; j < min(4, f.size.Bytes()); j++ {
				word |= uint32(f.rbuf[off+j]) << (8 * j)
			}
			w.HRData.Set(word)
		}
		resp := amba.RespOkay
		if inBeats && c.erred {
			resp = amba.RespError
		}
		if w.HResp.Get() != resp {
			w.HResp.Set(resp)
		}
	} else {
		if w.HReady.Get() {
			w.HReady.Set(false)
		}
		if w.HResp.Get() != amba.RespOkay {
			w.HResp.Set(amba.RespOkay)
		}
	}

	// 5. Publish write-buffer state: occupancy, front entry, and the
	// per-slot FIFO registers, on a cycle the queue changed (a posted
	// capture or a drain pop). Each is driven on change: an RTL flop
	// re-driven with its own value commits the same state.
	if f.queueMoved {
		f.publishQueue()
	}

	// 6. Sleep when idle: no transaction in flight, the write buffer
	// empty, no BI hint still travelling (the arbiter, the only sender,
	// evaluates before the fabric), no grant awaiting its address phase
	// and no request line asserted. The request-line condition keeps
	// the fabric awake through arbitration so a zero-latency BI hint
	// sent on the grant cycle is delivered on that exact cycle, as an
	// always-evaluated fabric would. GrantIdx and the request lines are
	// watched (New): a commit on either drops the request.
	if f.idle() && f.plat.Link.Pending() == 0 && w.GrantIdx.Get() < 0 && !w.requested() {
		f.k.Sleep(sim.CycleMax)
	}
}

// publishQueue drives the registered image of the write-buffer queue.
func (f *fabricComp) publishQueue() {
	w := f.w
	f.queueMoved = false
	for i, r := range f.slotR {
		slot := wbSlot{}
		if i < len(f.queue) {
			slot = wbSlot{addr: f.queue[i].addr, beats: f.queue[i].beats, valid: true}
		}
		if r.Get() != slot {
			r.Set(slot)
		}
	}
	if w.WBUsed.Get() != len(f.queue) {
		w.WBUsed.Set(len(f.queue))
	}
	var frontA uint32
	var frontLen int
	if len(f.queue) > 0 {
		frontA, frontLen = f.queue[0].addr, f.queue[0].beats
	}
	if w.WBFrontA.Get() != frontA {
		w.WBFrontA.Set(frontA)
	}
	if w.WBFrontLen.Get() != frontLen {
		w.WBFrontLen.Set(frontLen)
	}
	if len(f.queue) > f.plat.Stats.WBPeak {
		f.plat.Stats.WBPeak = len(f.queue)
	}
}

// capture starts the transaction whose address phase is visible.
func (f *fabricComp) capture(now sim.Cycle, g int) {
	w := f.w
	if f.cur.active {
		f.chk.Assert(false, "address phase for master %d while transaction of %d in flight", g, f.cur.rec.Master)
	} else {
		f.chk.AssertOK()
	}
	addr := w.HAddrM[g].Get()
	write := w.HWriteM[g].Get()
	beats := w.HBeatsM[g].Get()
	burst := w.HBurstM[g].Get()
	info := w.ReqInfo[g]
	if amba.ValidateBurst(addr, burst, f.size, beats) == nil {
		f.chk.PropertyOK()
	} else {
		f.chk.Property(now, "burst-legal", false,
			"master %d drove an illegal burst: %#x %v x%d", g, addr, burst, beats)
	}

	f.txnID++
	isWB := g == w.wbIndex()
	// The grant became visible one cycle before the master drove the
	// address phase.
	f.cur = curTxn{active: true, rec: trace.Record{
		ID: f.txnID, Master: g, Addr: addr, Write: write, Beats: beats,
		Req: info.since, Grant: now - 1,
	}}
	rec := &f.cur.rec

	inDDR := uint64(addr) < f.ddrCap
	switch {
	case !inDDR && f.sram.Contains(addr):
		// On-chip SRAM slave: fixed wait states, then one beat per
		// cycle. No bank machinery, no write posting.
		rec.FirstData = now + 1 + sim.Cycle(f.sram.WaitStates)
		rec.Done = rec.FirstData + sim.Cycle(beats-1)
		rec.Kind = "sram"
		if write {
			f.plat.Mem.Write(addr, w.WDataBuf)
		} else {
			n := beats * f.size.Bytes()
			if cap(f.rbuf) < n {
				f.rbuf = make([]byte, n)
			}
			f.rbuf = f.rbuf[:n]
			f.plat.Mem.Read(addr, f.rbuf)
			w.RDataBuf = f.rbuf
		}
	case !inDDR:
		// Unmapped address: the decoder selects no slave; the default
		// slave terminates the transfer with a single ERROR beat.
		rec.FirstData = now + 1
		rec.Done = now + 1
		f.cur.erred = true
		rec.Kind = "error"
	case write && !isWB && f.wbDepth > 0 && len(f.queue) < f.wbDepth:
		// Posted write: absorbed by the write buffer at bus speed, one
		// beat per cycle starting next cycle.
		rec.FirstData = now + 1
		rec.Done = now + sim.Cycle(beats)
		rec.Kind = "posted"
		f.queue = append(f.queue, wbEntry{addr: addr, beats: beats})
		f.queueMoved = true
		f.plat.Mem.Write(addr, w.WDataBuf) // datapath abstracted: eager write
		f.plat.Stats.WBPosted++
	default:
		if write && !isWB && f.wbDepth > 0 {
			f.plat.Stats.WBFullStalls++
		}
		res := f.plat.Engine.Access(now+1, addr, write, beats)
		rec.FirstData = res.FirstData
		rec.Done = res.LastData
		rec.Kind = res.Kind.String()
		if write {
			if isWB {
				// Drain: payload was written eagerly at post time.
				f.popFront(addr, beats)
				f.plat.Stats.WBDrained++
			} else {
				f.plat.Mem.Write(addr, w.WDataBuf)
			}
		} else {
			n := beats * f.size.Bytes()
			if cap(f.rbuf) < n {
				f.rbuf = make([]byte, n)
			}
			f.rbuf = f.rbuf[:n]
			f.plat.Mem.Read(addr, f.rbuf)
			w.RDataBuf = f.rbuf
		}
	}
	w.BusOwner.Set(g)
	w.BusLastData.Set(rec.Done)
}

// popFront removes the drained entry and checks it matches the drive.
func (f *fabricComp) popFront(addr uint32, beats int) {
	f.chk.Assert(len(f.queue) > 0, "write-buffer drain with empty queue")
	front := f.queue[0]
	if front.addr != addr || front.beats != beats {
		f.chk.Assert(false,
			"write-buffer drain mismatch: drove %#x x%d, front %#x x%d", addr, beats, front.addr, front.beats)
	} else {
		f.chk.AssertOK()
	}
	f.queue = append(f.queue[:0], f.queue[1:]...)
	f.queueMoved = true
}

// finish accounts the completed transaction.
func (f *fabricComp) finish() {
	f.plat.Complete(&f.cur.rec, f.cur.erred)
	f.cur.active = false
	// Release ownership unless a pipelined handoff grant is in flight.
	if f.w.GrantIdx.Get() < 0 {
		f.w.BusOwner.Set(-1)
	}
}

// idle reports whether the fabric has no transaction in flight and no
// pending write-buffer work.
func (f *fabricComp) idle() bool { return !f.cur.active && len(f.queue) == 0 }

// String aids debugging.
func (f *fabricComp) String() string {
	return fmt.Sprintf("fabric{cur=%+v wb=%d}", f.cur, len(f.queue))
}
