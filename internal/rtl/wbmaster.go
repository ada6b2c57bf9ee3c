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
	k   *sim.Kernel
	w   *Wires
	idx int
	chk *check.Checker

	st        mstate
	beats     int
	beatsSeen int
}

func newWBMaster(k *sim.Kernel, w *Wires, chk *check.Checker) *wbMasterComp {
	m := &wbMasterComp{k: k, w: w, idx: w.wbIndex(), chk: chk}
	bank := k.Bank()
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

// Eval implements sim.Component. The pseudo-master sleeps while idle
// with the fabric-published occupancy register reading empty; a commit
// on WBUsed (wired via Reg.Notify in New) wakes it the cycle the first
// posted write becomes visible — exactly the cycle an always-evaluated
// instance would first see it — and drops a request made in the cycle
// WBUsed changes.
func (m *wbMasterComp) Eval(now sim.Cycle) {
	w := m.w
	switch m.st {
	case mIdle, mDone:
		if w.WBUsed.Get() == 0 {
			m.k.Sleep(sim.CycleMax)
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
				if w.WBUsed.Get() == 0 {
					m.k.Sleep(sim.CycleMax)
				}
			}
		}
	}
}
