// Package rtl implements the pin-accurate AHB+ bus model: the baseline
// the paper validates its TLM against. Every AHB signal (HBUSREQ,
// HGRANT, HTRANS, HADDR, HBURST, HREADY, ...) is a registered value
// evaluated every bus cycle on the two-phase kernel, so simulation cost
// is proportional to cycles × components — the cost structure of a
// pin-accurate RTL simulation.
//
// # Timing contract
//
// A value Set during Eval(t) is visible to Get during Eval(t+1)
// ("visible at t+1"). The canonical transaction timeline, mirrored
// arithmetically by the TLM in internal/tlm, is:
//
//	W    master decides to request; drives HBUSREQ
//	W+1  request visible to the arbiter (earliest arbitration cycle T)
//	T+1  grant visible to the master
//	T+2  address phase visible to the bus fabric (cycle A)
//	A+1  memory access begins (DDR engine consulted with now = A+1)
//	F..L data beats (HREADY high); L is the completion cycle
//
// With request pipelining enabled the arbiter re-arbitrates while the
// bus is busy, from cycle L-1 of the current transaction (bounded below
// by A+1); without it, arbitration waits for the bus to go idle at L+1.
package rtl

import (
	"repro/internal/amba"
	"repro/internal/sim"
)

// reqInfo is the out-of-band request metadata a master publishes for
// the arbiter alongside its HBUSREQ signal (the paper maps signals to
// "variables or functions" in exactly this way, §3.1).
type reqInfo struct {
	addr  uint32
	write bool
	beats int
	burst amba.Burst
	since sim.Cycle // cycle the request became visible
}

// Wires is the AHB+ signal bundle. Per-master signals are driven by
// exactly one component; the fabric multiplexes by grant index, which
// is how the AHB address mux works.
type Wires struct {
	// NMasters is the number of traffic masters; the write-buffer
	// pseudo-master uses index NMasters.
	NMasters int

	// HBusReq[i] is master i's bus request (one extra for the WB).
	HBusReq []*sim.Reg[bool]
	// HGrant[i] is the one-hot grant vector.
	HGrant []*sim.Reg[bool]
	// GrantIdx is the arbiter's granted master (-1 when none
	// outstanding); it drives the address mux.
	GrantIdx *sim.Reg[int]

	// Per-master address-phase bundles.
	HTransM []*sim.Reg[amba.Trans]
	HAddrM  []*sim.Reg[uint32]
	HWriteM []*sim.Reg[bool]
	HBurstM []*sim.Reg[amba.Burst]
	HBeatsM []*sim.Reg[int]
	HWDataM []*sim.Reg[uint32]

	// Slave-side signals driven by the fabric.
	HReady *sim.Reg[bool]
	HResp  *sim.Reg[amba.Resp]
	HRData *sim.Reg[uint32]

	// BusOwner is the master whose data phase is in flight (-1 idle).
	BusOwner *sim.Reg[int]
	// BusLastData is the completion cycle of the in-flight transaction.
	BusLastData *sim.Reg[sim.Cycle]

	// Write-buffer state published by the fabric for the WB
	// pseudo-master and the arbiter's write-buffer filter.
	WBUsed     *sim.Reg[int]
	WBFrontA   *sim.Reg[uint32]
	WBFrontLen *sim.Reg[int]

	// Out-of-band transaction-port variables (§3.1): the write payload
	// posted by the master during its address phase and the read
	// payload posted by the fabric at capture. Time-disjoint use is
	// guaranteed by the bus protocol (one address phase at a time).
	WDataBuf []byte
	RDataBuf []byte

	// ReqInfo[i] is master i's out-of-band request metadata.
	ReqInfo []reqInfo
}

// newWires allocates the signal bundle for n traffic masters plus the
// write-buffer pseudo-master.
func newWires(n int) *Wires {
	total := n + 1
	w := &Wires{
		NMasters:    n,
		GrantIdx:    sim.NewReg(-1),
		HReady:      sim.NewReg(false),
		HResp:       sim.NewReg(amba.RespOkay),
		HRData:      sim.NewReg[uint32](0),
		BusOwner:    sim.NewReg(-1),
		BusLastData: sim.NewReg(sim.Cycle(0)),
		WBUsed:      sim.NewReg(0),
		WBFrontA:    sim.NewReg[uint32](0),
		WBFrontLen:  sim.NewReg(0),
		ReqInfo:     make([]reqInfo, total),
	}
	for i := 0; i < total; i++ {
		w.HBusReq = append(w.HBusReq, sim.NewReg(false))
		w.HGrant = append(w.HGrant, sim.NewReg(false))
		w.HTransM = append(w.HTransM, sim.NewReg(amba.TransIdle))
		w.HAddrM = append(w.HAddrM, sim.NewReg[uint32](0))
		w.HWriteM = append(w.HWriteM, sim.NewReg(false))
		w.HBurstM = append(w.HBurstM, sim.NewReg(amba.BurstSingle))
		w.HBeatsM = append(w.HBeatsM, sim.NewReg(0))
		w.HWDataM = append(w.HWDataM, sim.NewReg[uint32](0))
	}
	return w
}

// wbIndex returns the write-buffer pseudo-master index.
func (w *Wires) wbIndex() int { return w.NMasters }

// requested reports whether any request line is asserted.
func (w *Wires) requested() bool {
	for _, r := range w.HBusReq {
		if r.Get() {
			return true
		}
	}
	return false
}

// busFreeAfter predicts, for an Eval that sees no grant (GrantIdx
// reads -1), whether BusOwner reads -1 once cycle now commits: with no
// grant nothing is captured, and a transaction completing at now is
// released, there being no grant to hand off to.
func (w *Wires) busFreeAfter(now sim.Cycle) bool {
	return w.BusOwner.Get() < 0 || now == w.BusLastData.Get()
}
