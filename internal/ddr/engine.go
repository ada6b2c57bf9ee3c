package ddr

import (
	"fmt"

	"repro/internal/sim"
)

// BankState is the externally visible state of one bank FSM.
type BankState uint8

const (
	// BankIdle: no row open, no operation in flight.
	BankIdle BankState = iota
	// BankActivating: a row activation is in progress (until readyAt).
	BankActivating
	// BankActive: a row is open and the bank can accept column commands.
	BankActive
	// BankPrecharging: a precharge is in progress (until readyAt).
	BankPrecharging
)

// String implements fmt.Stringer.
func (s BankState) String() string {
	switch s {
	case BankIdle:
		return "IDLE"
	case BankActivating:
		return "ACTIVATING"
	case BankActive:
		return "ACTIVE"
	case BankPrecharging:
		return "PRECHARGING"
	}
	return fmt.Sprintf("BankState(%d)", uint8(s))
}

// PagePolicy selects the controller's row-management strategy.
type PagePolicy uint8

const (
	// OpenPage keeps the row open after an access, betting on locality
	// (the AHB+ default; bank interleaving is built around it).
	OpenPage PagePolicy = iota
	// ClosedPage auto-precharges after every access, betting against
	// locality: row-thrashing traffic sees misses instead of the more
	// expensive conflicts.
	ClosedPage
)

// String implements fmt.Stringer.
func (p PagePolicy) String() string {
	switch p {
	case OpenPage:
		return "open-page"
	case ClosedPage:
		return "closed-page"
	}
	return fmt.Sprintf("PagePolicy(%d)", uint8(p))
}

// AccessKind classifies an access by the page state it found.
type AccessKind uint8

const (
	// AccessHit: the target row was already open (column command only).
	AccessHit AccessKind = iota
	// AccessMiss: the bank was closed (activate + column).
	AccessMiss
	// AccessConflict: a different row was open (precharge + activate +
	// column), the most expensive case.
	AccessConflict
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case AccessHit:
		return "hit"
	case AccessMiss:
		return "miss"
	case AccessConflict:
		return "conflict"
	}
	return fmt.Sprintf("AccessKind(%d)", uint8(k))
}

// bank holds the timestamp state of one bank FSM. All behaviour is
// derived from these timestamps; there is no per-cycle ticking.
type bank struct {
	open    bool
	row     uint32
	readyAt sim.Cycle // activation/precharge completes (state transient until then)
	// rasReadyAt is the earliest legal precharge start (tRAS from the
	// last activate, extended by tWR after writes).
	rasReadyAt sim.Cycle
	// rcReadyAt is the earliest legal next activate (tRC from the last
	// activate).
	rcReadyAt sim.Cycle
}

// state reports the FSM state of the bank as of cycle now.
func (b *bank) state(now sim.Cycle) BankState {
	if b.open {
		if now < b.readyAt {
			return BankActivating
		}
		return BankActive
	}
	if now < b.readyAt {
		return BankPrecharging
	}
	return BankIdle
}

// AccessResult describes the timing of one scheduled burst access.
type AccessResult struct {
	// Kind classifies the page state the access found.
	Kind AccessKind
	// IssueAt is the cycle the engine began working on the access
	// (commands may start then; data comes later).
	IssueAt sim.Cycle
	// FirstData is the cycle of the first data beat on the memory bus.
	FirstData sim.Cycle
	// LastData is the cycle of the final data beat.
	LastData sim.Cycle
	// RefreshStall is the number of cycles the access waited behind an
	// intervening auto-refresh (0 almost always).
	RefreshStall sim.Cycle
}

// Latency returns the request-to-first-data latency.
func (r AccessResult) Latency(reqAt sim.Cycle) sim.Cycle { return r.FirstData.SubFloor(reqAt) }

// Stats aggregates engine activity for the profiler.
type Stats struct {
	Reads, Writes  uint64
	RowHits        uint64
	RowMisses      uint64
	RowConflicts   uint64
	Activates      uint64
	Precharges     uint64
	Refreshes      uint64
	HintActivates  uint64
	HintPrecharges uint64
	DataBeats      uint64
	DataBusBusy    sim.Cycle // cycles the memory data bus carried beats
}

// HitRate returns the fraction of accesses that were row hits.
func (s Stats) HitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// Engine is the DDR device + controller timing model. One instance
// belongs to one simulated system (the RTL model and the TLM each own
// their own engine configured identically).
//
// Command priority discipline (paper §3.3: "column, row, and pre-charge
// accesses have different priorities by scheduling scheme"): a demand
// access always schedules its column command at the earliest legal
// cycle; row (activate) commands are scheduled only as required by the
// column command; precharges are lowest priority — they happen lazily on
// conflict or eagerly only via interleaving hints when a bank is
// otherwise quiet.
type Engine struct {
	T   Timing
	Map AddrMap
	// Policy is the row-management strategy (default OpenPage). Set it
	// before the first access.
	Policy PagePolicy

	banks []bank
	// dataFreeAt is the first cycle the shared data bus is free.
	dataFreeAt sim.Cycle
	// actFreeAt is the earliest next activate on any bank (tRRD).
	actFreeAt sim.Cycle
	// nextRefresh is the cycle the next auto-refresh becomes due.
	nextRefresh sim.Cycle
	// refreshUntil is the end of an in-progress/completed refresh window.
	refreshUntil sim.Cycle

	stats Stats
}

// NewEngine returns an engine with all banks idle at cycle 0. It panics
// on invalid timing, which is static configuration.
func NewEngine(t Timing, m AddrMap) *Engine {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{T: t, Map: m, banks: make([]bank, m.Banks())}
	if t.TREFI > 0 {
		e.nextRefresh = t.TREFI
	} else {
		e.nextRefresh = sim.CycleMax
	}
	return e
}

// Stats returns a copy of the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// BankState reports the FSM state of bank b at cycle now.
func (e *Engine) BankState(b int, now sim.Cycle) BankState {
	return e.banks[b].state(now)
}

// OpenRow returns the open row of bank b and whether one is open.
func (e *Engine) OpenRow(b int) (uint32, bool) {
	return e.banks[b].row, e.banks[b].open
}

// Banks returns the number of banks.
func (e *Engine) Banks() int { return len(e.banks) }

// refreshDue runs any refreshes due by cycle t and returns the cycle at
// which normal operation may resume (>= t if a refresh blocked it).
// Refresh closes every bank. The rule is purely timestamp-based so the
// RTL model and the TLM — which call in at slightly different cycles —
// apply identical refresh behaviour.
func (e *Engine) refreshDue(t sim.Cycle) sim.Cycle {
	for e.nextRefresh <= t {
		// Refresh may begin once all banks are quiet and the data bus
		// has drained; it must not begin before it is due.
		start := e.nextRefresh
		for i := range e.banks {
			b := &e.banks[i]
			if b.open {
				// Bank must be precharged first: legal precharge start,
				// then tRP.
				pre := sim.MaxCycle(start, sim.MaxCycle(b.readyAt, b.rasReadyAt))
				start = sim.MaxCycle(start, pre+e.T.TRP)
				b.open = false
				b.readyAt = pre + e.T.TRP
				e.stats.Precharges++
			} else {
				start = sim.MaxCycle(start, b.readyAt)
			}
		}
		start = sim.MaxCycle(start, e.dataFreeAt)
		end := start + e.T.TRFC
		for i := range e.banks {
			e.banks[i].readyAt = end
			e.banks[i].rcReadyAt = end
			e.banks[i].rasReadyAt = end
		}
		e.refreshUntil = end
		e.stats.Refreshes++
		e.nextRefresh += e.T.TREFI
	}
	if t < e.refreshUntil {
		return e.refreshUntil
	}
	return t
}

// planAccess computes the timing of an access starting no earlier than
// now without mutating engine state, returning the plan needed to apply
// it. beats is the AHB burst length; each beat occupies the data bus
// for one cycle.
func (e *Engine) planAccess(now sim.Cycle, addr uint32, write bool, beats int) (AccessResult, int, uint32) {
	bankIdx, row, _ := e.Map.Decode(addr)
	b := e.banks[bankIdx]
	t := now

	var kind AccessKind
	var colReady sim.Cycle // earliest cycle the column command can issue
	switch {
	case b.open && b.row == row:
		kind = AccessHit
		colReady = sim.MaxCycle(t, b.readyAt)
	case b.open:
		kind = AccessConflict
		pre := sim.MaxCycle(t, sim.MaxCycle(b.readyAt, b.rasReadyAt))
		actStart := sim.MaxCycle(pre+e.T.TRP, sim.MaxCycle(b.rcReadyAt, e.actFreeAt))
		colReady = actStart + e.T.TRCD
	default:
		kind = AccessMiss
		actStart := sim.MaxCycle(t, sim.MaxCycle(b.readyAt, sim.MaxCycle(b.rcReadyAt, e.actFreeAt)))
		colReady = actStart + e.T.TRCD
	}

	lat := e.T.TCL
	if write {
		lat = e.T.TWL
	}
	firstData := colReady + lat
	if firstData < e.dataFreeAt {
		firstData = e.dataFreeAt
	}
	lastData := firstData + sim.Cycle(beats-1)

	return AccessResult{
		Kind:      kind,
		IssueAt:   t,
		FirstData: firstData,
		LastData:  lastData,
	}, bankIdx, row
}

// Access schedules a burst of beats beats at addr starting no earlier
// than now and commits the resulting bank/bus state. This is the demand
// path used by both models when a granted transaction reaches the
// memory controller.
func (e *Engine) Access(now sim.Cycle, addr uint32, write bool, beats int) AccessResult {
	if beats <= 0 {
		panic("ddr: access with no beats")
	}
	t := e.refreshDue(now)
	res, bankIdx, row := e.planAccess(t, addr, write, beats)
	res.RefreshStall = t.SubFloor(now)
	res.IssueAt = now

	b := &e.banks[bankIdx]
	switch res.Kind {
	case AccessHit:
		e.stats.RowHits++
	case AccessConflict:
		e.stats.RowConflicts++
		e.stats.Precharges++
		e.stats.Activates++
		actStart := res.FirstData - e.colLatency(write) - e.T.TRCD
		b.rcReadyAt = actStart + e.T.TRC
		b.rasReadyAt = actStart + e.T.TRAS
		e.actFreeAt = actStart + e.T.TRRD
	case AccessMiss:
		e.stats.RowMisses++
		e.stats.Activates++
		actStart := res.FirstData - e.colLatency(write) - e.T.TRCD
		b.rcReadyAt = actStart + e.T.TRC
		b.rasReadyAt = actStart + e.T.TRAS
		e.actFreeAt = actStart + e.T.TRRD
	}
	b.open = true
	b.row = row
	colIssue := res.FirstData - e.colLatency(write)
	if colIssue > b.readyAt {
		b.readyAt = colIssue
	}
	if write {
		// Write recovery extends the earliest precharge.
		wr := res.LastData + e.T.TWR
		if wr > b.rasReadyAt {
			b.rasReadyAt = wr
		}
		e.stats.Writes++
	} else {
		e.stats.Reads++
	}
	e.dataFreeAt = res.LastData + 1
	e.stats.DataBeats += uint64(beats)
	e.stats.DataBusBusy += sim.Cycle(beats)
	if e.Policy == ClosedPage {
		// Auto-precharge: close the row as soon as legal after the
		// burst, so the next access finds the bank idle.
		pre := sim.MaxCycle(res.LastData+1, b.rasReadyAt)
		b.open = false
		if pre+e.T.TRP > b.readyAt {
			b.readyAt = pre + e.T.TRP
		}
		e.stats.Precharges++
	}
	return res
}

func (e *Engine) colLatency(write bool) sim.Cycle {
	if write {
		return e.T.TWL
	}
	return e.T.TCL
}

// Tick advances the controller's autonomous work (the refresh timer)
// to cycle now. The cycle-stepped pin-accurate model calls this every
// bus cycle, so refresh windows materialize eagerly there; the TLM
// relies on the lazy materialization inside Access/Hint/Permit. Both
// orders produce identical refresh windows because the start rule is
// pure timestamp arithmetic over state that cannot change between the
// due time and the first later engine call.
func (e *Engine) Tick(now sim.Cycle) {
	if e.T.TREFI != 0 {
		e.refreshDue(now)
	}
}

// NextRefresh returns the cycle the next auto-refresh becomes due, or
// CycleMax when refresh is disabled. Cycle-stepped observers use it to
// know how far ahead no autonomous controller activity can occur.
func (e *Engine) NextRefresh() sim.Cycle {
	if e.T.TREFI == 0 {
		return sim.CycleMax
	}
	return e.nextRefresh
}

// RefreshClear returns the earliest cycle >= now at which the
// controller can accept new work: now itself, or the end of the refresh
// window in progress at now. Refreshes due by now are materialized,
// exactly as a Permit probe at now would.
func (e *Engine) RefreshClear(now sim.Cycle) sim.Cycle {
	if e.T.TREFI == 0 {
		return now
	}
	return e.refreshDue(now)
}

// Hint is the bank-interleaving fast path fed by the BI protocol: the
// arbiter announces the likely next transaction while the current one is
// still transferring, and the engine prepares the target bank — eagerly
// activating an idle bank or precharging a conflicting row — so the
// demand access later finds the row open. A hint only acts when it
// cannot delay in-flight work: the target bank must be quiet and, for a
// precharge, past its tRAS window.
func (e *Engine) Hint(now sim.Cycle, addr uint32, write bool) {
	t := e.refreshDue(now)
	if t != now {
		return // refresh in progress; do nothing
	}
	bankIdx, row, _ := e.Map.Decode(addr)
	b := &e.banks[bankIdx]
	switch b.state(now) {
	case BankIdle:
		if sim.MaxCycle(b.rcReadyAt, e.actFreeAt) > now {
			return
		}
		b.open = true
		b.row = row
		b.readyAt = now + e.T.TRCD
		b.rcReadyAt = now + e.T.TRC
		b.rasReadyAt = now + e.T.TRAS
		e.actFreeAt = now + e.T.TRRD
		e.stats.Activates++
		e.stats.HintActivates++
	case BankActive:
		if b.row == row {
			return // already the right row
		}
		if b.rasReadyAt > now {
			return
		}
		b.open = false
		b.readyAt = now + e.T.TRP
		e.stats.Precharges++
		e.stats.HintPrecharges++
	}
}

// Permit reports whether the controller can accept a new access to the
// bank containing addr at cycle now. It is the access-permission signal
// the DDRC sends back over BI: false only while a refresh window blocks
// the device. Refreshes that have become due are materialized here —
// the controller performs them autonomously, whether or not any access
// arrives — so a permission veto always clears once tRFC elapses.
func (e *Engine) Permit(now sim.Cycle, addr uint32) bool {
	if e.T.TREFI == 0 {
		return true
	}
	return e.refreshDue(now) <= now
}

// IdleOrOpen reports for the bank containing addr whether the bank is
// idle (cheap to open) or already open at the target row (free). The
// bank-affinity arbitration filter consumes this. Refreshes due by now
// are materialized first, as Hint, Permit and Access do, so the answer
// is the bank state a refresh due at now has already closed, whatever
// order the engine's callers probe it in.
func (e *Engine) IdleOrOpen(now sim.Cycle, addr uint32) (idle, rowOpen bool) {
	e.refreshDue(now)
	bankIdx, row, _ := e.Map.Decode(addr)
	b := &e.banks[bankIdx]
	switch b.state(now) {
	case BankIdle:
		return true, false
	case BankActive:
		return false, b.row == row
	}
	return false, false
}
