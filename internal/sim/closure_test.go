package sim

import "testing"

// at and after are the tests' closure shorthand over Post: the closure
// rides in the owner word (func values are pointer-shaped, so boxing one
// does not allocate — only what it captures does).
func at(s *Scheduler, c Cycle, fn func(now Cycle)) {
	s.Post(c, func(now Cycle, owner any, _ uint64) { owner.(func(Cycle))(now) }, fn, 0)
}

func after(s *Scheduler, d Cycle, fn func(now Cycle)) {
	at(s, s.Now().AddSat(d), fn)
}

// TestSchedulerSteadyStateAllocatesNothing is the zero-allocation
// contract of the event queue: once the heap's array is warm, posting a
// static EventFn with an owner pointer and dispatching it allocates
// nothing — one event or several pending alike. A capturing closure put
// back on the Post path shows up here as one allocation per event.
func TestSchedulerSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	type component struct{ fired int }
	fire := func(_ Cycle, owner any, arg uint64) { owner.(*component).fired += int(arg) }
	c := &component{}
	s := NewScheduler()
	step := func() {
		s.Post(s.Now()+3, fire, c, 1)
		s.RunAll()
		s.Post(s.Now()+97, fire, c, 1)
		s.Post(s.Now()+50, fire, c, 1)
		s.Post(s.Now()+2, fire, c, 1)
		s.RunAll()
	}
	for range 1000 {
		step() // warm-up: grow the heap's array to its steady-state size
	}
	c.fired = 0
	const runs = 1000
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Fatalf("post+dispatch allocates %v times per step in steady state, want 0", allocs)
	}
	if want := 4 * (runs + 1); c.fired != want { // AllocsPerRun adds one warm-up call
		t.Fatalf("fired %d events, want %d", c.fired, want)
	}
}
