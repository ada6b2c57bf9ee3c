package sim

// EventFn is a scheduled callback. Instead of a capturing closure, hot
// paths pass a static function plus an owner (typically the component
// the event belongs to, a pointer — boxed without allocation) and an
// opaque argument word, so posting an event never materializes a
// closure.
type EventFn func(now Cycle, owner any, arg uint64)

// event is one queued callback. seq is its post order: the tie-break
// that runs the events of one cycle first in, first out.
type event struct {
	at    Cycle
	seq   uint64
	fn    EventFn
	owner any
	arg   uint64
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Scheduler is a cycle-keyed event queue: a binary min-heap of events
// ordered by (cycle, post order). Unlike the cycle-based Kernel it
// advances directly to the next scheduled event, skipping quiescent
// cycles entirely. Events of one cycle run in the order they were
// posted, which keeps runs deterministic, and the heap's backing array
// is reused, so a warm scheduler posts and dispatches without
// allocating.
type Scheduler struct {
	now  Cycle
	seq  uint64
	heap []event
}

// NewScheduler returns an empty scheduler at cycle 0.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current cycle; inside an event callback it is the
// cycle the event was scheduled for.
func (s *Scheduler) Now() Cycle { return s.now }

// Post schedules fn(c, owner, arg) at cycle c. Scheduling in the past
// (c < Now) panics: it indicates a causality bug in the caller.
func (s *Scheduler) Post(c Cycle, fn EventFn, owner any, arg uint64) {
	if c < s.now {
		panic("sim: event scheduled in the past")
	}
	s.seq++
	e := event{at: c, seq: s.seq, fn: fn, owner: owner, arg: arg}
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.heap = h
}

// RunAll executes events in (cycle, post order) until the queue drains;
// callbacks may post further events. It returns the cycle of the last
// executed event.
func (s *Scheduler) RunAll() Cycle {
	for len(s.heap) > 0 {
		h := s.heap
		next := h[0]
		n := len(h) - 1
		last := h[n]
		h[n] = event{} // drop the owner reference
		h = h[:n]
		if n > 0 {
			i := 0
			for {
				c := 2*i + 1
				if c >= n {
					break
				}
				if r := c + 1; r < n && h[r].before(&h[c]) {
					c = r
				}
				if !h[c].before(&last) {
					break
				}
				h[i] = h[c]
				i = c
			}
			h[i] = last
		}
		s.heap = h
		s.now = next.at
		next.fn(next.at, next.owner, next.arg)
	}
	return s.now
}
