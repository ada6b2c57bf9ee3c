// Package arb implements the AHB+ arbitration scheme: seven arbitration
// filters, always activated regardless of master/slave combination
// (paper §3.3), applied as a narrowing pipeline over the set of pending
// requests. The same pipeline object drives both the pin-accurate model
// and the TLM, so the two abstraction levels implement the identical
// policy by construction.
//
// Filter order (first to last), fixed by the package; Enabled only
// selects which of the first six run:
//
//  1. permission    — drop requests the DDRC cannot accept (BI veto)
//  2. urgency       — requests whose QoS slack is nearly exhausted win
//  3. realtime      — RT masters beat NRT masters
//  4. bandwidth     — masters below their reserved share beat the rest
//  5. bank-affinity — open-row, then idle-bank targets preferred (BI)
//  6. write-buffer  — the write-buffer pseudo-master is boosted when
//     nearly full and suppressed when nearly empty
//  7. round-robin   — final single-winner tie-break, fair rotation
//
// Only the permission filter may veto every candidate (no grant this
// round). Every other filter passes the set through unchanged where it
// would otherwise empty it, which keeps the pipeline deadlock-free.
// The plain transcription of this policy, without the status memo,
// the static QoS skip flags or the single-candidate fast path, is the
// reference in reference_test.go.
package arb

import (
	"repro/internal/bi"
	"repro/internal/qos"
	"repro/internal/sim"
)

// Request is one pending bus request as seen by the arbiter.
type Request struct {
	// Master is the requesting port index. The write-buffer
	// pseudo-master participates with its own index.
	Master int
	// Addr is the first-beat address.
	Addr uint32
	// Write is the transfer direction.
	Write bool
	// Beats is the burst length.
	Beats int
	// Since is the cycle the request was first asserted.
	Since sim.Cycle
	// IsWriteBuf marks the write-buffer pseudo-master's drain request.
	IsWriteBuf bool
}

// Context is everything the filter pipeline may observe for one
// arbitration round. A nil Regs, Provider or Served means that input is
// absent, and the filters that read it pass the set through.
type Context struct {
	// Now is the arbitration cycle.
	Now sim.Cycle
	// Reqs are the pending requests; filters operate on indices into it.
	Reqs []Request
	// Regs are the per-master QoS registers, indexed by master (out of
	// range reads as the zero register).
	Regs []qos.Reg
	// Provider answers BI bank-status queries (nil means no BI). Its
	// answers must be a function of (cycle, address) within one cycle:
	// they are cached per request for the round, so the permission and
	// bank-affinity filters share one engine query.
	Provider *bi.Provider
	// WBUsed and WBCap describe write-buffer occupancy.
	WBUsed, WBCap int
	// Served is the per-master count of data beats served within the
	// current bandwidth accounting window, indexed by master.
	Served []uint64
	// TotalBeats is the total beats served in the window.
	TotalBeats uint64
	// LastGrant is the master granted in the previous round (-1 if
	// none); the round-robin filter rotates from it.
	LastGrant int
	// UrgencyThreshold is the slack (cycles) below which a request is
	// treated as urgent.
	UrgencyThreshold sim.Cycle

	// Per-round bank-status memo, keyed by request index and validated
	// by cycle and address so stale entries can never be returned.
	stCache []bankStatusEntry
	stCycle sim.Cycle

	// Static QoS summary, precomputed once per run by PrecomputeQoS:
	// when valid, filters whose outcome is fully determined by the
	// register file skip their per-round scans.
	qosStatic    bool
	anyObjective bool
	anyRT        bool
	anyQuota     bool
}

// PrecomputeQoS derives the static filter-skip flags from Regs. Call it
// once after populating Regs (the register file is immutable for the
// duration of a run).
func (c *Context) PrecomputeQoS() {
	c.qosStatic = true
	c.anyObjective, c.anyRT, c.anyQuota = false, false, false
	for _, r := range c.Regs {
		if r.Objective != 0 {
			c.anyObjective = true
		}
		if r.Class == qos.RT {
			c.anyRT = true
		}
		if r.Quota != 0 {
			c.anyQuota = true
		}
	}
}

// bankStatusEntry is one memoized bank-status lookup.
type bankStatusEntry struct {
	addr  uint32
	valid bool
	st    bi.BankStatus
}

// qosReg returns master m's QoS register.
func (c *Context) qosReg(m int) qos.Reg {
	if m < len(c.Regs) {
		return c.Regs[m]
	}
	return qos.Reg{}
}

// served returns master m's beats served in the bandwidth window.
func (c *Context) served(m int) uint64 {
	if m < len(c.Served) {
		return c.Served[m]
	}
	return 0
}

// permitFor returns just the permission bit for request i, without
// computing the bank-affinity half of the status report. The permission
// filter runs every round (it is the only veto), while bank affinity
// only matters in contended rounds; splitting the query halves the
// controller work of the common single-candidate round.
func (c *Context) permitFor(i int) bool {
	return c.Provider == nil || c.Provider.Permit(c.Now, c.Reqs[i].Addr)
}

// statusFor returns the BI bank status for request i from a non-nil
// Provider. Lookups are memoized for the round: several filters query
// the same request, the engine is asked once, and the controller's
// answer cannot change within a cycle.
func (c *Context) statusFor(i int) bi.BankStatus {
	addr := c.Reqs[i].Addr
	if c.stCycle != c.Now || len(c.stCache) < len(c.Reqs) {
		if cap(c.stCache) < len(c.Reqs) {
			c.stCache = make([]bankStatusEntry, len(c.Reqs))
		}
		c.stCache = c.stCache[:len(c.Reqs)]
		for j := range c.stCache {
			c.stCache[j].valid = false
		}
		c.stCycle = c.Now
	}
	if e := &c.stCache[i]; e.valid && e.addr == addr {
		return e.st
	}
	st := c.Provider.Status(c.Now, addr)
	c.stCache[i] = bankStatusEntry{addr: addr, valid: true, st: st}
	return st
}

// Stats counts, per filter, how many rounds it ran and in how many it
// strictly narrowed the candidate set (was "decisive").
type Stats struct {
	Rounds   uint64
	Decisive map[string]uint64
	Vetoed   uint64
	Grants   uint64
}

// Pipeline applies the enabled filters in package order and picks the
// winner.
type Pipeline struct {
	stages     []int // enabled indices into filters, ascending
	permission bool  // stages[0] is the permission filter
	stats      Stats // Decisive stays nil here; Stats builds it from decisive
	decisive   [len(filters)]uint64
	buf        []int // reused candidate scratch
}

// Enabled describes which of the seven filters are active; the
// round-robin tie-break is always present so arbitration stays
// deterministic.
type Enabled struct {
	Permission   bool
	Urgency      bool
	RealTime     bool
	Bandwidth    bool
	BankAffinity bool
	WriteBuffer  bool
}

// AllEnabled returns the paper configuration: every filter on.
func AllEnabled() Enabled {
	return Enabled{true, true, true, true, true, true}
}

// DefaultWith builds the pipeline with the selected filters (round-robin
// always last).
func DefaultWith(e Enabled) *Pipeline {
	on := [len(filters)]bool{e.Permission, e.Urgency, e.RealTime, e.Bandwidth,
		e.BankAffinity, e.WriteBuffer, true}
	p := &Pipeline{stages: make([]int, 0, len(filters)), permission: e.Permission}
	for i := range filters {
		if on[i] {
			p.stages = append(p.stages, i)
		}
	}
	return p
}

// Stats returns a copy of the pipeline statistics. Decisive has a key
// only for a filter that has been decisive at least once.
func (p *Pipeline) Stats() Stats {
	c := p.stats
	c.Decisive = make(map[string]uint64, len(p.stages))
	for i, n := range p.decisive {
		if n > 0 {
			c.Decisive[filters[i].name] = n
		}
	}
	return c
}

// Select runs the pipeline over ctx.Reqs and returns the index (into
// ctx.Reqs) of the winner, or ok=false when no request may be granted
// this round (permission veto or no requests at all).
func (p *Pipeline) Select(ctx *Context) (winner int, ok bool) {
	if len(ctx.Reqs) == 0 {
		return 0, false
	}
	p.stats.Rounds++
	if len(ctx.Reqs) == 1 {
		// Fast path: a single candidate cannot be narrowed, so no
		// filter can be decisive — only the permission veto matters.
		// Stats stay exactly as the general path would leave them.
		if p.permission && !ctx.permitFor(0) {
			p.stats.Vetoed++
			return 0, false
		}
		p.stats.Grants++
		return 0, true
	}
	if cap(p.buf) < len(ctx.Reqs) {
		p.buf = make([]int, len(ctx.Reqs))
	}
	cands := p.buf[:len(ctx.Reqs)]
	for i := range cands {
		cands[i] = i
	}
	for _, f := range p.stages {
		next := filters[f].apply(ctx, cands)
		if len(next) == 0 { // only permission can empty the set
			p.stats.Vetoed++
			return 0, false
		}
		if len(next) < len(cands) {
			p.decisive[f]++
		}
		cands = next
	}
	// Round-robin, always the last stage, leaves exactly one.
	p.stats.Grants++
	return cands[0], true
}
