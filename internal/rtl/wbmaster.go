package rtl

import (
	"repro/internal/amba"
	"repro/internal/check"
	"repro/internal/sim"
)

// wbMasterComp is the write buffer acting "as another master when it is
// occupied" (paper §3.3): it watches the fabric-published occupancy,
// requests the bus, and drives drain address phases from the published
// front entry. The fabric itself pops the queue when it captures the
// drain's address phase.
type wbMasterComp struct {
	w   *Wires
	idx int
	chk *check.Checker

	st        mstate
	beats     int
	beatsSeen int
}

func newWBMaster(bank *sim.RegBank, w *Wires, chk *check.Checker) *wbMasterComp {
	m := &wbMasterComp{w: w, idx: w.wbIndex(), chk: chk}
	bank.Add(w.HBusReq[m.idx])
	bank.Add(w.HTransM[m.idx])
	bank.Add(w.HAddrM[m.idx])
	bank.Add(w.HWriteM[m.idx])
	bank.Add(w.HBurstM[m.idx])
	bank.Add(w.HBeatsM[m.idx])
	return m
}

// Name implements sim.Component.
func (m *wbMasterComp) Name() string { return "writebuffer-master" }

// Eval implements sim.Component.
func (m *wbMasterComp) Eval(now sim.Cycle) {
	w := m.w
	switch m.st {
	case mIdle, mDone:
		if w.WBUsed.Get() == 0 {
			return
		}
		w.HBusReq[m.idx].Set(true)
		w.ReqInfo[m.idx] = reqInfo{
			addr:  w.WBFrontA.Get(),
			write: true,
			beats: w.WBFrontLen.Get(),
			burst: amba.FixedBurstFor(w.WBFrontLen.Get(), false),
			since: now + 1,
		}
		m.st = mWait

	case mWait:
		if !w.HGrant[m.idx].Get() {
			// The front entry is stable while we wait (only the fabric
			// pops, and only for our own drains), but refresh the
			// request info in case a new front was published.
			w.ReqInfo[m.idx].addr = w.WBFrontA.Get()
			w.ReqInfo[m.idx].beats = w.WBFrontLen.Get()
			return
		}
		m.beats = w.WBFrontLen.Get()
		m.chk.Assert(m.beats > 0, "write buffer granted with empty front")
		w.HBusReq[m.idx].Set(false)
		w.HTransM[m.idx].Set(amba.TransNonSeq)
		w.HAddrM[m.idx].Set(w.WBFrontA.Get())
		w.HWriteM[m.idx].Set(true)
		w.HBurstM[m.idx].Set(amba.FixedBurstFor(m.beats, false))
		w.HBeatsM[m.idx].Set(m.beats)
		m.beatsSeen = 0
		m.st = mData

	case mData:
		if w.HTransM[m.idx].Get() == amba.TransNonSeq {
			w.HTransM[m.idx].Set(amba.TransIdle)
		}
		if w.BusOwner.Get() == m.idx && w.HReady.Get() {
			m.beatsSeen++
			if m.beatsSeen == m.beats {
				m.st = mIdle
			}
		}
	}
}

// Quiescent implements sim.Sleeper: the pseudo-master sleeps while the
// fabric-published occupancy register reads empty; a commit on WBUsed
// (wired via Reg.Notify in New) wakes it the cycle the first posted
// write becomes visible — exactly the cycle an always-evaluated
// instance would first see it.
func (m *wbMasterComp) Quiescent(now sim.Cycle) (sim.Cycle, bool) {
	if (m.st == mIdle || m.st == mDone) && m.w.WBUsed.Get() == 0 {
		return sim.CycleMax, true
	}
	return 0, false
}
