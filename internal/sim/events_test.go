package sim

import (
	"math/rand"
	"sort"
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

func TestSchedulerLimitStopsBeforeEvent(t *testing.T) {
	s := NewScheduler()
	ran := false
	at(s, 100, func(Cycle) { ran = true })
	end := s.Run(50)
	if ran {
		t.Fatal("event beyond limit ran")
	}
	if end != 50 {
		t.Fatalf("Run returned %v, want 50", end)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	// Resuming past the limit runs the event.
	s.Run(200)
	if !ran {
		t.Fatal("event did not run after raising limit")
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

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := Cycle(0); i < 10; i++ {
		at(s, i, func(now Cycle) {
			count++
			if now == 3 {
				s.Stop("enough")
			}
		})
	}
	s.RunAll()
	if count != 4 {
		t.Fatalf("ran %d events, want 4", count)
	}
	if s.StopReason() != "enough" {
		t.Fatalf("StopReason = %q", s.StopReason())
	}
}

func TestSchedulerPeekNext(t *testing.T) {
	s := NewScheduler()
	if s.PeekNext() != CycleMax {
		t.Fatal("PeekNext on empty queue should be CycleMax")
	}
	at(s, 42, func(Cycle) {})
	at(s, 17, func(Cycle) {})
	if s.PeekNext() != 17 {
		t.Fatalf("PeekNext = %v, want 17", s.PeekNext())
	}
}

// Property: for any random schedule, events execute in nondecreasing
// cycle order and every event executes exactly once.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		cycles := make([]Cycle, n)
		var executed []Cycle
		for i := 0; i < n; i++ {
			c := Cycle(rng.Intn(1000))
			cycles[i] = c
			at(s, c, func(now Cycle) { executed = append(executed, now) })
		}
		s.RunAll()
		if len(executed) != n {
			return false
		}
		if !sort.SliceIsSorted(executed, func(i, j int) bool { return executed[i] < executed[j] }) {
			return false
		}
		sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
		for i := range cycles {
			if cycles[i] != executed[i] {
				return false
			}
		}
		return true
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
