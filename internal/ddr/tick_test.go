package ddr

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// engineCall is one engine call a bus model makes at cycle at.
type engineCall struct {
	at    sim.Cycle
	op    int // 0 Access, 1 Hint, 2 Permit, 3 IdleOrOpen, 4 RefreshClear
	addr  uint32
	write bool
	beats int
}

// replayCalls runs calls in order on a fresh refreshing engine, calling
// Tick(t) for each cycle of ticks (sorted, and merged before the first
// call at or after it), and returns every call's return values and the
// engine's Stats after every call.
func replayCalls(calls []engineCall, ticks []sim.Cycle) []any {
	e := NewEngine(DDR266(), DefaultAddrMap())
	var out []any
	for _, c := range calls {
		for len(ticks) > 0 && ticks[0] <= c.at {
			e.Tick(ticks[0])
			ticks = ticks[1:]
		}
		switch c.op {
		case 0:
			out = append(out, e.Access(c.at, c.addr, c.write, c.beats))
		case 1:
			e.Hint(c.at, c.addr, c.write)
		case 2:
			out = append(out, e.Permit(c.at, c.addr))
		case 3:
			idle, open := e.IdleOrOpen(c.at, c.addr)
			out = append(out, idle, open)
		default:
			out = append(out, e.RefreshClear(c.at))
		}
		out = append(out, e.Stats())
	}
	return out
}

// extraTicksAgree builds a seeded sequence of engine calls at
// non-decreasing cycles, with extra Tick calls at non-decreasing cycles
// between them, and reports the first result that differs between the
// sequence run with and without the ticks.
func extraTicksAgree(seed int64) error {
	m := DefaultAddrMap()
	rng := rand.New(rand.NewSource(seed))
	calls := make([]engineCall, 400)
	var ticks []sim.Cycle
	var at sim.Cycle
	for i := range calls {
		prev := at
		at += sim.Cycle(rng.Intn(25))
		calls[i] = engineCall{
			at:    at,
			op:    rng.Intn(5),
			addr:  m.Encode(rng.Intn(m.Banks()), uint32(rng.Intn(3)), uint32(rng.Intn(64))),
			write: rng.Intn(2) == 0,
			beats: 1 + rng.Intn(8),
		}
		switch rng.Intn(4) {
		case 0:
			ticks = append(ticks, at) // on the call's own cycle
		case 1:
			ticks = append(ticks, prev+sim.Cycle(rng.Int63n(int64(at-prev)+1)))
		}
	}
	got, want := replayCalls(calls, ticks), replayCalls(calls, nil)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("result %d is %+v with extra ticks, %+v without", i, got[i], want[i])
		}
	}
	return nil
}

// TestExtraTicksChangeNothing is the engine's refresh contract: the
// controller applies a refresh the moment it falls due, so whether a
// cycle-stepped caller also ticks the engine, and on which cycles, must
// not show. Over seeded call sequences at non-decreasing cycles, extra
// Tick calls at any non-decreasing cycles leave every return value and
// every Stats field unchanged. A query that read bank state without
// first applying a refresh due by its cycle answers differently after
// a Tick at that cycle, and fails here.
func TestExtraTicksChangeNothing(t *testing.T) {
	f := func(seed int64) bool {
		if err := extraTicksAgree(seed); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzExtraTicks is the same contract as a native fuzz target; plain
// go test replays its seed corpus.
func FuzzExtraTicks(f *testing.F) {
	for _, seed := range []int64{1, 4520, 20050307} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := extraTicksAgree(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
