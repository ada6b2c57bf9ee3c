package sim

import "math/bits"

// EventFn is a scheduled callback. Instead of a capturing closure, hot
// paths pass a static function plus an owner (typically the component
// the event belongs to, a pointer — boxed without allocation) and an
// opaque argument word. Steady-state scheduling is thereby allocation
// free: the scheduler recycles slab entries and never materializes a
// closure.
type EventFn func(now Cycle, owner any, arg uint64)

// EventID identifies a queued event for Cancel. The zero value (NoEvent)
// is never a valid id. Ids are generation-tagged: once an event has run
// or been cancelled, its id goes stale and Cancel on it reports false.
type EventID uint64

// NoEvent is the invalid EventID.
const NoEvent EventID = 0

// event is one slab entry: a queued callback threaded into an intrusive
// per-bucket FIFO list via next.
type event struct {
	at    Cycle
	fn    EventFn
	owner any
	arg   uint64
	next  int32
	gen   uint32
	live  bool
}

// list is an intrusive FIFO of slab indices (-1 = empty).
type list struct{ head, tail int32 }

// bitset tracks which of the 256 buckets of a wheel level are occupied,
// so the dispatcher can jump to the next event instead of probing empty
// buckets one cycle at a time.
type bitset [wheelSlots / 64]uint64

func (b *bitset) set(i uint32)   { b[i>>6] |= 1 << (i & 63) }
func (b *bitset) clear(i uint32) { b[i>>6] &^= 1 << (i & 63) }
func (b *bitset) any() bool      { return b[0]|b[1]|b[2]|b[3] != 0 }

// nextFrom returns the first set bit at position >= i, or -1.
func (b *bitset) nextFrom(i uint32) int32 {
	if i >= wheelSlots {
		return -1
	}
	w := i >> 6
	m := b[w] & (^uint64(0) << (i & 63))
	for {
		if m != 0 {
			return int32(w<<6) + int32(bits.TrailingZeros64(m))
		}
		w++
		if w >= uint32(len(b)) {
			return -1
		}
		m = b[w]
	}
}

const (
	wheelBits  = 8
	wheelSlots = 1 << wheelBits // 256 one-cycle buckets per level
	wheelMask  = wheelSlots - 1
)

// Scheduler is a general cycle-keyed event queue: a two-level
// hierarchical event wheel over a slab of recycled event records.
// Unlike the cycle-based Kernel it advances directly to the next
// scheduled event, skipping quiescent cycles entirely.
//
// Level 0 holds the 256 cycles of the current block (at>>8 == l0Block),
// one single-cycle FIFO bucket each; level 1 holds the following 255
// blocks, one 256-cycle bucket each; anything further out waits in an
// overflow list. Buckets cascade downward as time advances. Events at
// the same cycle run in scheduling (FIFO) order, which keeps runs
// deterministic, and steady-state Post/dispatch performs no heap
// allocation: event records live in a slab and are recycled through an
// intrusive free list.
type Scheduler struct {
	now     Cycle
	stopped bool
	stopMsg string

	slab     []event
	freeHead int32

	l0      [wheelSlots]list
	l1      [wheelSlots]list
	l0Bits  bitset // occupancy of the level-0 buckets
	l1Bits  bitset // occupancy of the level-1 buckets
	l0Block Cycle  // block number (cycle>>8) the level-0 wheel covers

	far    []int32 // beyond the level-1 horizon, in scheduling order
	farMin Cycle   // lower bound on the earliest live far event

	count int // live (pending) events
}

// NewScheduler returns an empty scheduler at cycle 0.
func NewScheduler() *Scheduler {
	s := &Scheduler{freeHead: -1, farMin: CycleMax}
	for i := range s.l0 {
		s.l0[i] = list{head: -1, tail: -1}
		s.l1[i] = list{head: -1, tail: -1}
	}
	return s
}

// Now returns the current cycle; inside an event callback it is the
// cycle the event was scheduled for.
func (s *Scheduler) Now() Cycle { return s.now }

// Pending returns the number of queued (not yet executed or cancelled)
// events.
func (s *Scheduler) Pending() int { return s.count }

// Stop requests that Run return after the currently executing event.
func (s *Scheduler) Stop(msg string) {
	s.stopped = true
	s.stopMsg = msg
}

// StopReason returns the message passed to Stop, or "".
func (s *Scheduler) StopReason() string { return s.stopMsg }

// alloc takes a slab entry from the free list or grows the slab.
func (s *Scheduler) alloc() int32 {
	if s.freeHead >= 0 {
		idx := s.freeHead
		s.freeHead = s.slab[idx].next
		return idx
	}
	s.slab = append(s.slab, event{})
	return int32(len(s.slab) - 1)
}

// release returns a slab entry to the free list, bumping its generation
// so outstanding EventIDs for it go stale.
func (s *Scheduler) release(idx int32) {
	e := &s.slab[idx]
	e.gen++
	e.fn = nil
	e.owner = nil
	e.live = false
	e.next = s.freeHead
	s.freeHead = idx
}

// push appends a slab entry to a bucket FIFO.
func (s *Scheduler) push(l *list, idx int32) {
	s.slab[idx].next = -1
	if l.tail < 0 {
		l.head, l.tail = idx, idx
	} else {
		s.slab[l.tail].next = idx
		l.tail = idx
	}
}

// popHead removes and returns the first entry of a bucket FIFO.
func (s *Scheduler) popHead(l *list) int32 {
	idx := l.head
	l.head = s.slab[idx].next
	if l.head < 0 {
		l.tail = -1
	}
	return idx
}

// Post schedules fn(c, owner, arg) at cycle c and returns an id usable
// with Cancel. Scheduling in the past (c < Now) panics: it indicates a
// causality bug in the model.
func (s *Scheduler) Post(c Cycle, fn EventFn, owner any, arg uint64) EventID {
	if c < s.now {
		panic("sim: event scheduled in the past")
	}
	if !s.l0Bits.any() && !s.l1Bits.any() {
		// Both wheel levels are empty: re-anchor the window at the
		// current cycle so the new event lands as low as possible.
		s.l0Block = s.now >> wheelBits
	}
	idx := s.alloc()
	e := &s.slab[idx]
	e.at, e.fn, e.owner, e.arg, e.live = c, fn, owner, arg, true
	s.count++
	blk := c >> wheelBits
	// An event at or beyond the earliest far entry must queue behind it
	// in the far list — landing it in either wheel level would let it
	// overtake the far entry (or break same-cycle FIFO order) when the
	// far list is later merged in. The level-0 case is reachable too:
	// the empty-wheel re-anchor above can place l0Block inside a block
	// that still holds a live far event.
	farBlocked := len(s.far) > 0 && c >= s.farMin
	switch {
	case blk == s.l0Block && !farBlocked:
		s.push(&s.l0[c&wheelMask], idx)
		s.l0Bits.set(uint32(c & wheelMask))
	case blk-s.l0Block <= wheelMask && !farBlocked:
		s.push(&s.l1[blk&wheelMask], idx)
		s.l1Bits.set(uint32(blk & wheelMask))
	default:
		s.far = append(s.far, idx)
		if c < s.farMin {
			s.farMin = c
		}
	}
	return EventID(uint64(idx+1) | uint64(e.gen)<<32)
}

// Cancel removes a queued event. It reports whether the id named a
// still-pending event; ids of executed or already-cancelled events are
// stale and return false. The slab entry is reclaimed lazily when the
// wheel next touches its bucket.
func (s *Scheduler) Cancel(id EventID) bool {
	idx := int32(uint32(id)) - 1
	if idx < 0 || int(idx) >= len(s.slab) {
		return false
	}
	e := &s.slab[idx]
	if !e.live || e.gen != uint32(id>>32) {
		return false
	}
	e.live = false
	e.fn = nil
	e.owner = nil
	s.count--
	return true
}

// cascade moves every entry of a level-1 bucket into its level-0
// bucket, preserving scheduling order; cancelled entries are reclaimed.
func (s *Scheduler) cascade(l *list) {
	for l.head >= 0 {
		idx := s.popHead(l)
		e := &s.slab[idx]
		if !e.live {
			s.release(idx)
			continue
		}
		s.push(&s.l0[e.at&wheelMask], idx)
		s.l0Bits.set(uint32(e.at & wheelMask))
	}
}

// mergeFar moves every far entry that fits the current two-level
// window (l0Block unchanged) into the wheel, reclaims cancelled
// entries, and recomputes farMin exactly. Returns true while far work
// remains possible (entries moved or kept).
func (s *Scheduler) mergeFar() bool {
	keep := s.far[:0]
	newMin := CycleMax
	for _, idx := range s.far {
		e := &s.slab[idx]
		if !e.live {
			s.release(idx)
			continue
		}
		blk := e.at >> wheelBits
		switch {
		case blk < s.l0Block:
			panic("sim: far event behind the wheel window")
		case blk == s.l0Block:
			s.push(&s.l0[e.at&wheelMask], idx)
			s.l0Bits.set(uint32(e.at & wheelMask))
		case blk-s.l0Block <= wheelMask:
			s.push(&s.l1[blk&wheelMask], idx)
			s.l1Bits.set(uint32(blk & wheelMask))
		default:
			keep = append(keep, idx)
			if e.at < newMin {
				newMin = e.at
			}
		}
	}
	moved := len(s.far) - len(keep)
	s.far = keep
	s.farMin = newMin
	return moved > 0 || len(keep) > 0
}

// refillFromFar re-anchors the empty wheel at the earliest far event
// and merges every far entry now within the two-level horizon. Only
// legal while both wheel levels are empty (the anchor moves). Returns
// false when no live far events remain.
func (s *Scheduler) refillFromFar() bool {
	anchor := s.farMin >> wheelBits
	if anchor < s.now>>wheelBits {
		anchor = s.now >> wheelBits
	}
	s.l0Block = anchor
	return s.mergeFar()
}

// nextReady finds the earliest live queued event with at <= limit,
// advancing the wheel window as far as the limit allows. It returns the
// unlinked slab index and its cycle, or ok=false when the next event
// (if any) lies beyond the limit.
func (s *Scheduler) nextReady(limit Cycle) (int32, Cycle, bool) {
	for {
		if s.l0Bits.any() {
			base := s.l0Block << wheelBits
			start := s.now
			if start < base {
				start = base
			}
			slot := uint32(start & wheelMask)
			for {
				sl := s.l0Bits.nextFrom(slot)
				if sl < 0 {
					break
				}
				c := base | Cycle(sl)
				l := &s.l0[sl]
				for l.head >= 0 && !s.slab[l.head].live {
					s.release(s.popHead(l)) // reclaim cancelled events
				}
				if l.head < 0 {
					s.l0Bits.clear(uint32(sl))
					slot = uint32(sl)
					continue
				}
				if c > limit {
					return 0, 0, false
				}
				idx := s.popHead(l)
				if l.head < 0 {
					s.l0Bits.clear(uint32(sl))
				}
				return idx, c, true
			}
		}
		if s.l1Bits.any() {
			ls := uint32(s.l0Block & wheelMask)
			sl := s.l1Bits.nextFrom(ls + 1)
			if sl < 0 {
				sl = s.l1Bits.nextFrom(0) // wrapped: later blocks
			}
			delta := Cycle(uint32(sl)-ls) & wheelMask
			if delta == 0 {
				panic("sim: event wheel bookkeeping corrupted")
			}
			blk := s.l0Block + delta
			if len(s.far) > 0 && s.farMin>>wheelBits <= blk {
				// A far event may have drifted into (or before) the
				// window as l0Block advanced: merge before cascading so
				// it cannot be overtaken. farMin is never stale-high,
				// so this triggers whenever a merge could matter; each
				// pass either moves entries or tightens farMin.
				s.mergeFar()
				continue
			}
			if blk<<wheelBits > limit {
				// The earliest remaining event starts beyond the limit;
				// leave the wheel untouched.
				return 0, 0, false
			}
			s.l0Block = blk
			s.l1Bits.clear(uint32(sl))
			s.cascade(&s.l1[sl])
			continue
		}
		if len(s.far) > 0 {
			if s.farMin > limit {
				return 0, 0, false
			}
			if s.refillFromFar() {
				continue
			}
		}
		return 0, 0, false
	}
}

// PeekNext returns the cycle of the earliest queued event, or CycleMax
// if the queue is empty. It does not advance the wheel.
func (s *Scheduler) PeekNext() Cycle {
	if s.count == 0 {
		return CycleMax
	}
	min := CycleMax
	scan := func(l *list) {
		for idx := l.head; idx >= 0; idx = s.slab[idx].next {
			if e := &s.slab[idx]; e.live && e.at < min {
				min = e.at
			}
		}
	}
	for i := range s.l0 {
		scan(&s.l0[i])
		scan(&s.l1[i])
	}
	for _, idx := range s.far {
		if e := &s.slab[idx]; e.live && e.at < min {
			min = e.at
		}
	}
	return min
}

// Run executes events in cycle order until the queue drains, the cycle
// limit would be exceeded, or Stop is called. It returns the cycle the
// scheduler stopped at: the cycle of the last executed event, or limit
// if the first unexecuted event lies beyond it.
func (s *Scheduler) Run(limit Cycle) Cycle {
	for s.count > 0 && !s.stopped {
		idx, at, ok := s.nextReady(limit)
		if !ok {
			s.now = limit
			return s.now
		}
		s.now = at
		e := &s.slab[idx]
		fn, owner, arg := e.fn, e.owner, e.arg
		s.release(idx)
		s.count--
		fn(at, owner, arg)
	}
	return s.now
}

// RunAll executes events until the queue drains or Stop is called, with
// no cycle limit.
func (s *Scheduler) RunAll() Cycle {
	return s.Run(CycleMax)
}
