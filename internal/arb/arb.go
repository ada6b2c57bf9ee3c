// Package arb implements the AHB+ arbitration scheme: seven arbitration
// filters, always activated regardless of master/slave combination
// (paper §3.3), applied as a narrowing pipeline over the set of pending
// requests. The same pipeline object drives both the pin-accurate model
// and the TLM, so the two abstraction levels implement the identical
// policy by construction.
//
// Filter order (first to last):
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
// round); any other filter that would empty the candidate set is
// ignored for that round, which keeps the pipeline deadlock-free.
package arb

import (
	"fmt"

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
// arbitration round. The hot paths (both simulation models) populate
// the direct data fields — Regs, Served, Provider — which the filters
// read without going through a captured closure; the closure fields
// QoS, Status and ServedBeats remain as a flexible fallback for tests
// and custom harnesses and are consulted only when the corresponding
// direct field is unset.
type Context struct {
	// Now is the arbitration cycle.
	Now sim.Cycle
	// Reqs are the pending requests; filters operate on indices into it.
	Reqs []Request
	// Regs are the per-master QoS registers, indexed by master (out of
	// range reads as the zero register). Preferred over QoS.
	Regs []qos.Reg
	// QoS returns the QoS register of a master (fallback for Regs).
	QoS func(master int) qos.Reg
	// Provider answers BI bank-status queries directly. Preferred over
	// Status; results are cached per request for the round, so the
	// permission and bank-affinity filters share one engine query.
	Provider *bi.Provider
	// Status returns the BI bank status for an address (fallback for
	// Provider; nil with nil Provider means no BI).
	Status func(addr uint32) bi.BankStatus
	// WBUsed and WBCap describe write-buffer occupancy.
	WBUsed, WBCap int
	// Served is the per-master count of data beats served within the
	// current bandwidth accounting window. Preferred over ServedBeats.
	Served []uint64
	// ServedBeats is the closure fallback for Served.
	ServedBeats func(master int) uint64
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
// duration of a run); contexts using the QoS closure fallback must not
// call it, since the closure's answers are not statically known.
func (c *Context) PrecomputeQoS() {
	c.qosStatic = c.Regs != nil
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

// hasQoS reports whether QoS registers are available.
func (c *Context) hasQoS() bool { return c.Regs != nil || c.QoS != nil }

// qosReg returns master m's QoS register.
func (c *Context) qosReg(m int) qos.Reg {
	if c.Regs != nil {
		if m < len(c.Regs) {
			return c.Regs[m]
		}
		return qos.Reg{}
	}
	if c.QoS != nil {
		return c.QoS(m)
	}
	return qos.Reg{}
}

// hasStatus reports whether BI bank status is available.
func (c *Context) hasStatus() bool { return c.Provider != nil || c.Status != nil }

// hasServed reports whether per-master served-beat counts are available.
func (c *Context) hasServed() bool { return c.Served != nil || c.ServedBeats != nil }

// served returns master m's beats served in the bandwidth window.
func (c *Context) served(m int) uint64 {
	if c.Served != nil {
		if m < len(c.Served) {
			return c.Served[m]
		}
		return 0
	}
	if c.ServedBeats != nil {
		return c.ServedBeats(m)
	}
	return 0
}

// permitFor returns just the permission bit for request i, without
// computing the bank-affinity half of the status report. The permission
// filter runs every round (it is the only veto), while bank affinity
// only matters in contended rounds; splitting the query halves the
// controller work of the common single-candidate round.
func (c *Context) permitFor(i int) bool {
	if c.Provider != nil {
		return c.Provider.Permit(c.Now, c.Reqs[i].Addr)
	}
	return c.Status(c.Reqs[i].Addr).Permit
}

// statusFor returns the BI bank status for request i. Provider-backed
// lookups are memoized for the round (several filters query the same
// request; the engine is asked once, and the controller's answer cannot
// change within a cycle). The Status closure fallback is consulted on
// every call, preserving the historical contract for harnesses that
// vary the answer between Select calls.
func (c *Context) statusFor(i int) bi.BankStatus {
	addr := c.Reqs[i].Addr
	if c.Provider == nil {
		return c.Status(addr)
	}
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

// Filter narrows a candidate set. It must be deterministic and must not
// mutate the context.
type Filter interface {
	// Name identifies the filter in stats and config.
	Name() string
	// Apply returns the surviving subset of cands (indices into
	// ctx.Reqs), preserving order.
	Apply(ctx *Context, cands []int) []int
	// CanVeto reports whether an empty result is meaningful (grant
	// nobody) rather than an over-narrowing to be ignored.
	CanVeto() bool
}

// Stats counts, per filter, how many rounds it ran and in how many it
// strictly narrowed the candidate set (was "decisive").
type Stats struct {
	Rounds   uint64
	Decisive map[string]uint64
	Vetoed   uint64
	Grants   uint64
}

// Pipeline applies an ordered list of filters and picks the winner.
type Pipeline struct {
	filters  []Filter
	vetoers  []Filter // the subset with CanVeto, for the fast path
	stats    Stats    // Decisive stays nil here; Stats builds it from decisive
	decisive []uint64 // decisive rounds, indexed by filter position
	buf      []int    // reused candidate scratch
	one      [1]int
}

// NewPipeline returns a pipeline over the given filters in order.
func NewPipeline(filters ...Filter) *Pipeline {
	p := &Pipeline{filters: filters, decisive: make([]uint64, len(filters))}
	for _, f := range filters {
		if f.CanVeto() {
			p.vetoers = append(p.vetoers, f)
		}
	}
	return p
}

// Default returns the full seven-filter AHB+ pipeline. Individual
// filters can be disabled through config by building a custom pipeline;
// see DefaultWith.
func Default() *Pipeline {
	return NewPipeline(
		Permission{}, Urgency{}, RealTime{}, Bandwidth{},
		BankAffinity{}, WriteBufferGate{}, RoundRobin{},
	)
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
	var fs []Filter
	if e.Permission {
		fs = append(fs, Permission{})
	}
	if e.Urgency {
		fs = append(fs, Urgency{})
	}
	if e.RealTime {
		fs = append(fs, RealTime{})
	}
	if e.Bandwidth {
		fs = append(fs, Bandwidth{})
	}
	if e.BankAffinity {
		fs = append(fs, BankAffinity{})
	}
	if e.WriteBuffer {
		fs = append(fs, WriteBufferGate{})
	}
	fs = append(fs, RoundRobin{})
	return NewPipeline(fs...)
}

// Filters returns the names of the filters in pipeline order.
func (p *Pipeline) Filters() []string {
	out := make([]string, len(p.filters))
	for i, f := range p.filters {
		out[i] = f.Name()
	}
	return out
}

// Stats returns a copy of the pipeline statistics. Decisive has a key
// only for a filter that has been decisive at least once.
func (p *Pipeline) Stats() Stats {
	c := p.stats
	c.Decisive = make(map[string]uint64, len(p.filters))
	for i, n := range p.decisive {
		if n > 0 {
			c.Decisive[p.filters[i].Name()] += n
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
		// filter can be decisive — only a veto-capable filter matters.
		// Stats stay exactly as the general path would leave them.
		for _, f := range p.vetoers {
			p.one[0] = 0
			if len(f.Apply(ctx, p.one[:1])) == 0 {
				p.stats.Vetoed++
				return 0, false
			}
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
	for i, f := range p.filters {
		next := f.Apply(ctx, cands)
		if len(next) == 0 {
			if f.CanVeto() {
				p.stats.Vetoed++
				return 0, false
			}
			continue // over-narrowed: ignore this filter's result
		}
		if len(next) < len(cands) {
			p.decisive[i]++
		}
		cands = next
	}
	if len(cands) != 1 {
		// The round-robin stage guarantees a single winner; reaching
		// here means a filter violated its contract.
		panic(fmt.Sprintf("arb: pipeline left %d candidates", len(cands)))
	}
	p.stats.Grants++
	return cands[0], true
}
