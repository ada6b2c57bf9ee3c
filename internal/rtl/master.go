package rtl

import (
	"repro/internal/amba"
	"repro/internal/check"
	"repro/internal/platform"
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
	w    *Wires
	idx  int
	gen  traffic.Generator
	size amba.Size
	chk  *check.Checker
	bank sim.RegBank

	st        mstate
	cur       traffic.Req
	wantAt    sim.Cycle
	grantAt   sim.Cycle // cycle the grant became visible
	beatsSeen int
	wbuf      []byte

	// lastRead holds the payload of the most recent completed read,
	// for data-integrity tests.
	lastRead []byte
	// completions counts finished transactions.
	completions uint64
	// errors counts ERROR-terminated transactions.
	errors uint64
}

func newMaster(w *Wires, idx int, gen traffic.Generator, size amba.Size, chk *check.Checker) *masterComp {
	m := &masterComp{w: w, idx: idx, gen: gen, size: size, chk: chk}
	m.bank.Add(w.HBusReq[idx])
	m.bank.Add(w.HTransM[idx])
	m.bank.Add(w.HAddrM[idx])
	m.bank.Add(w.HWriteM[idx])
	m.bank.Add(w.HBurstM[idx])
	m.bank.Add(w.HBeatsM[idx])
	m.bank.Add(w.HWDataM[idx])
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
		return

	case mIdle:
		if now < m.wantAt {
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
		m.grantAt = now
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
				for j := 0; j < m.size.Bytes(); j++ {
					m.wbuf[b*m.size.Bytes()+j] = platform.WriteByte(m.idx, ba+uint32(j))
				}
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
				m.errors++
				m.completions++
				m.fetch(now)
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
				m.completions++
				m.fetch(now)
			}
		}
	}
}

// Update implements sim.Component.
func (m *masterComp) Update(now sim.Cycle) { m.bank.CommitAll() }

// Quiescent implements sim.Sleeper: a master idles between the
// completion of one transaction and the request time of the next (and
// forever once its workload drains). Both states are purely
// time-driven, so no watched signal is needed — the kernel wakes the
// master at its own request time.
func (m *masterComp) Quiescent(now sim.Cycle) (sim.Cycle, bool) {
	switch m.st {
	case mDone:
		return sim.CycleMax, true
	case mIdle:
		return m.wantAt, true
	}
	return 0, false
}

// finished reports whether the workload is exhausted.
func (m *masterComp) finished() bool { return m.st == mDone }
