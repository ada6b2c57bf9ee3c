// Package bi implements the BI (Bus Interface) side-band protocol of
// the AHB+ architecture: the dedicated link over which the arbiter
// sends the memory controller "the next transaction information" ahead
// of time, and the controller reports idle banks and access permission
// back — the machinery behind the paper's bank-interleaving throughput
// feature (§2, §3.4).
package bi

import (
	"repro/internal/sim"
)

// NextTxn is the arbiter→DDRC announcement of an upcoming transaction.
type NextTxn struct {
	// Master is the index of the master the arbiter expects to grant.
	Master int
	// Addr is the first-beat address of the expected transaction.
	Addr uint32
	// Write is the expected direction.
	Write bool
	// Beats is the expected burst length.
	Beats int
}

// Delivery is a message paired with the cycle it arrives at the
// consumer.
type Delivery struct {
	// At is the delivery cycle (send time + link latency).
	At sim.Cycle
	// Msg is the delivered announcement.
	Msg NextTxn
}

// Link is a unidirectional arbiter→DDRC message pipe with a fixed
// pipeline latency, modeling the registered BI signal stage. Messages
// become visible to the consumer Latency cycles after they are sent.
// The zero-latency link delivers in the same cycle.
type Link struct {
	// Latency is the pipeline delay in cycles.
	Latency sim.Cycle
	// Enabled gates the whole interface; a disabled link drops sends,
	// modeling the "BI off" ablation configuration.
	Enabled bool

	q    []Delivery // in flight, in send order, from index head
	head int
	sent uint64
	drop uint64
}

// NewLink returns an enabled link with the given latency.
func NewLink(latency sim.Cycle) *Link {
	return &Link{Latency: latency, Enabled: true}
}

// Send enqueues msg at cycle now; it becomes deliverable at
// now+Latency. Sends on a disabled link are counted and dropped.
func (l *Link) Send(now sim.Cycle, msg NextTxn) {
	if !l.Enabled {
		l.drop++
		return
	}
	l.sent++
	if l.head > 0 && len(l.q) == cap(l.q) {
		// Reclaim the popped prefix instead of growing the array.
		l.q = l.q[:copy(l.q, l.q[l.head:])]
		l.head = 0
	}
	l.q = append(l.q, Delivery{At: now.AddSat(l.Latency), Msg: msg})
}

// Pop removes and returns the oldest message if its delivery time is
// <= now; calling it until ok is false yields every due message in send
// order. Consumers that poll every cycle observe At == now;
// event-driven consumers use At to apply the message at its true
// arrival cycle.
func (l *Link) Pop(now sim.Cycle) (d Delivery, ok bool) {
	if l.head == len(l.q) || l.q[l.head].At > now {
		return Delivery{}, false
	}
	d = l.q[l.head]
	l.head++
	return d, true
}

// Pending returns the number of undelivered messages.
func (l *Link) Pending() int { return len(l.q) - l.head }

// Sent returns the number of accepted messages.
func (l *Link) Sent() uint64 { return l.sent }

// Dropped returns the number of messages dropped because the link was
// disabled.
func (l *Link) Dropped() uint64 { return l.drop }

// BankStatus is the DDRC→arbiter report consumed by the permission and
// bank-affinity arbitration filters. It is produced fresh each
// arbitration round by the controller side (see the Provider interface)
// rather than queued, because it is level-, not edge-, signaling.
type BankStatus struct {
	// Permit is false while the controller cannot accept new work
	// (refresh window).
	Permit bool
	// BankIdle is true when the target bank is idle (cheap to open).
	BankIdle bool
	// RowOpen is true when the target row is already open (free access).
	RowOpen bool
}

// Provider is the controller-side interface that answers status
// queries for a candidate address. The DDR engine implements the two
// underlying queries; this adapter gives the arbiter one typed view and
// honors the Enabled gate: with BI off the arbiter sees a permissive,
// information-free status, exactly like a bus with no side-band wiring.
type Provider struct {
	Link *Link
	// PermitFn and InfoFn are wired to the DDR engine.
	PermitFn func(now sim.Cycle, addr uint32) bool
	InfoFn   func(now sim.Cycle, addr uint32) (idle, rowOpen bool)
}

// Permit reports just the access-permission bit for addr at cycle now,
// skipping the bank-affinity queries. It always equals
// Status(now, addr).Permit, so with BI off it is true.
func (p *Provider) Permit(now sim.Cycle, addr uint32) bool {
	if p.Link == nil || !p.Link.Enabled {
		return true
	}
	return p.PermitFn(now, addr)
}

// Status returns the BankStatus for addr at cycle now.
func (p *Provider) Status(now sim.Cycle, addr uint32) BankStatus {
	if p.Link == nil || !p.Link.Enabled {
		return BankStatus{Permit: true}
	}
	idle, open := p.InfoFn(now, addr)
	return BankStatus{
		Permit:   p.PermitFn(now, addr),
		BankIdle: idle,
		RowOpen:  open,
	}
}
