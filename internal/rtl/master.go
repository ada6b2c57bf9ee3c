package rtl

import (
	"repro/internal/amba"
	"repro/internal/check"
	"repro/internal/memmodel"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// mstate is the master port FSM state.
type mstate uint8

const (
	mIdle mstate = iota // waiting for the next request time
	mWait               // HBUSREQ asserted, waiting for HGRANT
	mData               // counting data beats
	mDone               // workload exhausted
)

// masterComp is a signal-level AHB master driven by a traffic
// generator: it requests the bus, waits for grant, drives its address
// phase bundle and counts HREADY data beats.
type masterComp struct {
	k    *sim.Kernel
	w    *Wires
	idx  int
	gen  traffic.Generator
	size amba.Size
	chk  *check.Checker

	st        mstate
	cur       traffic.Req
	wantAt    sim.Cycle
	beatsSeen int
	wbuf      []byte

	// lastRead holds the payload of the most recent completed read,
	// for data-integrity tests.
	lastRead []byte
}

func newMaster(k *sim.Kernel, w *Wires, idx int, gen traffic.Generator, size amba.Size, chk *check.Checker) *masterComp {
	m := &masterComp{k: k, w: w, idx: idx, gen: gen, size: size, chk: chk}
	bank := k.Bank()
	bank.Add(w.HBusReq[idx])
	bank.Add(w.HTransM[idx])
	bank.Add(w.HAddrM[idx])
	bank.Add(w.HWriteM[idx])
	bank.Add(w.HBurstM[idx])
	bank.Add(w.HBeatsM[idx])
	bank.Add(w.HWDataM[idx])
	m.fetch(0)
	return m
}

// Name implements sim.Component.
func (m *masterComp) Name() string { return "master" + m.gen.Name() }

// fetch pulls the next request from the generator.
func (m *masterComp) fetch(prevDone sim.Cycle) {
	req, ok := m.gen.Next(prevDone)
	if !ok {
		m.st = mDone
		return
	}
	if req.Beats <= 0 {
		m.chk.Assert(false, "generator %s produced empty burst", m.gen.Name())
	} else {
		m.chk.AssertOK()
	}
	m.cur = req
	m.wantAt = req.At
	m.st = mIdle
}

// Eval implements sim.Component.
func (m *masterComp) Eval(now sim.Cycle) {
	w := m.w
	switch m.st {
	case mDone:
		m.idle()

	case mIdle:
		if now < m.wantAt {
			m.idle()
			return
		}
		w.HBusReq[m.idx].Set(true)
		w.ReqInfo[m.idx] = reqInfo{
			addr:  m.cur.Addr,
			write: m.cur.Write,
			beats: m.cur.Beats,
			burst: m.cur.Burst,
			since: now + 1,
		}
		m.st = mWait

	case mWait:
		if !w.HGrant[m.idx].Get() {
			return
		}
		// Drive the address phase (visible next cycle) and release the
		// request line.
		w.HBusReq[m.idx].Set(false)
		w.HTransM[m.idx].Set(amba.TransNonSeq)
		w.HAddrM[m.idx].Set(m.cur.Addr)
		w.HWriteM[m.idx].Set(m.cur.Write)
		w.HBurstM[m.idx].Set(m.cur.Burst)
		w.HBeatsM[m.idx].Set(m.cur.Beats)
		if m.cur.Write {
			// Post the payload through the out-of-band write-data port.
			n := m.cur.Beats * m.size.Bytes()
			if cap(m.wbuf) < n {
				m.wbuf = make([]byte, n)
			}
			m.wbuf = m.wbuf[:n]
			for b := 0; b < m.cur.Beats; b++ {
				ba := amba.BeatAddr(m.cur.Addr, m.cur.Burst, m.size, b)
				memmodel.FillPattern(m.wbuf[b*m.size.Bytes():(b+1)*m.size.Bytes()], m.idx, ba)
			}
			w.WDataBuf = m.wbuf
		}
		m.beatsSeen = 0
		m.st = mData

	case mData:
		// The address pulse lasts exactly one cycle.
		if w.HTransM[m.idx].Get() == amba.TransNonSeq {
			w.HTransM[m.idx].Set(amba.TransIdle)
		}
		if w.BusOwner.Get() == m.idx && w.HReady.Get() {
			if w.HResp.Get() == amba.RespError {
				// The default slave terminated an unmapped access with a
				// single ERROR beat; abandon the transfer.
				m.fetch(now)
				m.idle()
				return
			}
			m.chk.PropertyOK()
			if m.cur.Write {
				// Drive the write-data signal for the beat, as the pins
				// would carry it (the payload itself moved through the
				// transaction port at the address phase).
				off := m.beatsSeen * m.size.Bytes()
				var word uint32
				for j := 0; j < m.size.Bytes() && j < 4; j++ {
					word |= uint32(m.wbuf[off+j]) << (8 * j)
				}
				w.HWDataM[m.idx].Set(word)
			}
			m.beatsSeen++
			if m.beatsSeen == m.cur.Beats {
				if !m.cur.Write {
					m.lastRead = append(m.lastRead[:0], w.RDataBuf...)
				}
				m.fetch(now)
				m.idle()
			}
		}
	}
}

// idle asks the kernel to sleep through an idle state (mIdle or mDone):
// a master idles between the completion of one transaction and the
// request time of the next, and forever once its workload drains. Both
// are purely time-driven, so no watched signal is needed — the kernel
// wakes the master at its own request time.
func (m *masterComp) idle() {
	if m.st == mDone {
		m.k.Sleep(sim.CycleMax)
	} else {
		m.k.Sleep(m.wantAt)
	}
}

// finished reports whether the workload is exhausted.
func (m *masterComp) finished() bool { return m.st == mDone }
