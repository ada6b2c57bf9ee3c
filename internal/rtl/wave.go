package rtl

import (
	"io"

	"repro/internal/amba"
	"repro/internal/sim"
	"repro/internal/trace"
)

// waveComp dumps the AHB signal bundle to a VCD waveform every cycle —
// pin-level visibility into the bus, viewable in any waveform viewer.
// Only the pin-accurate model offers this; it has no meaning at
// transaction level, which is part of the abstraction trade the paper
// describes.
type waveComp struct {
	w   *Wires
	vcd *trace.VCD

	busReq, grant []trace.SignalID
	htrans        []trace.SignalID
	haddr         trace.SignalID
	hready        trace.SignalID
	hresp         trace.SignalID
	owner         trace.SignalID
	wbUsed        trace.SignalID
}

// newWave registers the interesting subset of the bundle. The muxed
// address is reconstructed from the granted master's bundle.
func newWave(w *Wires, out io.Writer) *waveComp {
	v := trace.NewVCD(out)
	c := &waveComp{w: w, vcd: v}
	for i := 0; i <= w.NMasters; i++ {
		c.busReq = append(c.busReq, v.AddSignal(sigName("hbusreq", i), 1))
		c.grant = append(c.grant, v.AddSignal(sigName("hgrant", i), 1))
		c.htrans = append(c.htrans, v.AddSignal(sigName("htrans", i), 2))
	}
	c.haddr = v.AddSignal("haddr", 32)
	c.hready = v.AddSignal("hready", 1)
	c.hresp = v.AddSignal("hresp", 2)
	c.owner = v.AddSignal("busowner", 8)
	c.wbUsed = v.AddSignal("wbused", 8)
	if err := v.Begin("ahbplus"); err != nil {
		panic(err)
	}
	return c
}

func sigName(base string, i int) string {
	const digits = "0123456789"
	if i < 10 {
		return base + string(digits[i])
	}
	return base + string(digits[i/10]) + string(digits[i%10])
}

// Name implements sim.Component.
func (c *waveComp) Name() string { return "waveform" }

// Eval implements sim.Component.
func (c *waveComp) Eval(now sim.Cycle) {
	t := uint64(now)
	w := c.w
	for i := 0; i <= w.NMasters; i++ {
		c.vcd.Sample(t, c.busReq[i], boolBit(w.HBusReq[i].Get()))
		c.vcd.Sample(t, c.grant[i], boolBit(w.HGrant[i].Get()))
		c.vcd.Sample(t, c.htrans[i], uint64(w.HTransM[i].Get()))
	}
	// Muxed address: the granted master's HADDR, X (0) otherwise.
	if g := w.GrantIdx.Get(); g >= 0 && w.HTransM[g].Get() == amba.TransNonSeq {
		c.vcd.Sample(t, c.haddr, uint64(w.HAddrM[g].Get()))
	}
	c.vcd.Sample(t, c.hready, boolBit(w.HReady.Get()))
	c.vcd.Sample(t, c.hresp, uint64(w.HResp.Get()))
	c.vcd.Sample(t, c.owner, uint64(int64(w.BusOwner.Get())&0xFF))
	c.vcd.Sample(t, c.wbUsed, uint64(w.WBUsed.Get()))
}

// flush drains buffered waveform output; called at end of run.
func (c *waveComp) flush() { _ = c.vcd.Flush() }

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
