package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSchedulerRunsInCycleOrder(t *testing.T) {
	s := NewScheduler()
	var got []Cycle
	for _, c := range []Cycle{30, 10, 20, 10, 5} {
		c := c
		at(s, c, func(now Cycle) {
			if now != c {
				t.Errorf("event scheduled at %v ran at %v", c, now)
			}
			got = append(got, now)
		})
	}
	s.RunAll()
	want := []Cycle{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestSchedulerFIFOWithinCycle(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		at(s, 7, func(Cycle) { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events ran out of FIFO order: %v", order)
		}
	}
}

func TestSchedulerEventsCanScheduleEvents(t *testing.T) {
	s := NewScheduler()
	hops := 0
	var hop func(now Cycle)
	hop = func(now Cycle) {
		hops++
		if hops < 5 {
			after(s, 3, hop)
		}
	}
	at(s, 0, hop)
	end := s.RunAll()
	if hops != 5 {
		t.Fatalf("hops = %d, want 5", hops)
	}
	if end != 12 { // 0,3,6,9,12
		t.Fatalf("final cycle = %v, want 12", end)
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	at(s, 10, func(now Cycle) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		at(s, now-1, func(Cycle) {})
	})
	s.RunAll()
}

func TestSchedulerCycleMaxSentinel(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.Post(CycleMax, func(now Cycle, _ any, _ uint64) {
		if now != CycleMax {
			t.Errorf("ran at %v", now)
		}
		ran = true
	}, nil, 0)
	if end := s.RunAll(); end != CycleMax || !ran {
		t.Fatalf("RunAll reached %v, ran=%v", end, ran)
	}
}

func TestSchedulerFarHorizonOrdering(t *testing.T) {
	s := NewScheduler()
	var got []Cycle
	record := func(now Cycle, _ any, _ uint64) { got = append(got, now) }
	// Cycles up to 2^40 apart, posted out of order, with same-cycle pairs.
	cycles := []Cycle{1 << 20, 3, 70_000, 500, 1 << 20, 70_000, 3, 1 << 40}
	for _, c := range cycles {
		s.Post(c, record, nil, 0)
	}
	s.RunAll()
	want := slices.Clone(cycles)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// Property: for any random schedule, every event runs exactly once and
// the run order is a stable sort of the posts by cycle — (cycle, post
// order). Cycles come from a small range so same-cycle ties are
// common, and some callbacks post at their own cycle, which must run
// after everything already queued for that cycle.
func TestSchedulerOrderProperty(t *testing.T) {
	type post struct {
		at Cycle
		id int
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var posted, ran []post
		var schedule func(c Cycle, reentrant bool)
		schedule = func(c Cycle, reentrant bool) {
			p := post{at: c, id: len(posted)}
			posted = append(posted, p)
			at(s, c, func(now Cycle) {
				ran = append(ran, p)
				if reentrant {
					schedule(now, false)
				}
			})
		}
		for i := 0; i < n; i++ {
			schedule(Cycle(rng.Intn(8)), rng.Intn(4) == 0)
		}
		s.RunAll()
		want := slices.Clone(posted)
		slices.SortStableFunc(want, func(a, b post) int { return cmp.Compare(a.at, b.at) })
		return slices.Equal(ran, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCycleHelpers(t *testing.T) {
	if MaxCycle(3, 5) != 5 || MaxCycle(5, 3) != 5 {
		t.Fatal("MaxCycle")
	}
	if MinCycle(3, 5) != 3 || MinCycle(5, 3) != 3 {
		t.Fatal("MinCycle")
	}
	if CycleMax.AddSat(10) != CycleMax {
		t.Fatal("AddSat should saturate")
	}
	if Cycle(5).SubFloor(7) != 0 {
		t.Fatal("SubFloor should floor at zero")
	}
	if Cycle(7).SubFloor(5) != 2 {
		t.Fatal("SubFloor arithmetic")
	}
	if Cycle(3).String() != "cyc3" || CycleMax.String() != "∞" {
		t.Fatal("String")
	}
}
