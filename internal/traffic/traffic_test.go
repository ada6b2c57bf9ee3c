package traffic

import (
	"testing"

	"repro/internal/amba"
	"repro/internal/sim"
)

// drain pulls every request from g, validating the chained completion
// protocol with a fixed service time per transaction.
func drain(t *testing.T, g Generator, service sim.Cycle) []Req {
	t.Helper()
	var out []Req
	prevDone := sim.Cycle(0)
	for {
		r, ok := g.Next(prevDone)
		if !ok {
			return out
		}
		if r.Beats <= 0 {
			t.Fatalf("%s produced %d beats", g.Name(), r.Beats)
		}
		if r.At < prevDone {
			t.Fatalf("%s requested at %v before previous completion %v", g.Name(), r.At, prevDone)
		}
		if err := amba.ValidateBurst(r.Addr, r.Burst, amba.Size32, r.Beats); err != nil {
			t.Fatalf("%s produced protocol-illegal txn: %v", g.Name(), err)
		}
		out = append(out, r)
		prevDone = r.At + service
	}
}

func TestSequentialWalksAddresses(t *testing.T) {
	g := &Sequential{Base: 0x1000, Beats: 4, Gap: 2, Count: 5}
	reqs := drain(t, g, 10)
	if len(reqs) != 5 {
		t.Fatalf("produced %d reqs, want 5", len(reqs))
	}
	for i, r := range reqs {
		if want := uint32(0x1000 + i*16); r.Addr != want {
			t.Fatalf("req %d addr %#x, want %#x", i, r.Addr, want)
		}
		if r.Write {
			t.Fatal("WriteEvery=0 must produce reads")
		}
	}
	// Gap honored.
	if reqs[1].At != reqs[0].At+10+2 {
		t.Fatalf("gap not honored: %v -> %v", reqs[0].At, reqs[1].At)
	}
}

func TestSequentialWriteEvery(t *testing.T) {
	g := &Sequential{Base: 0, Beats: 1, Count: 6, WriteEvery: 3}
	reqs := drain(t, g, 1)
	wantWrites := []bool{false, false, true, false, false, true}
	for i, r := range reqs {
		if r.Write != wantWrites[i] {
			t.Fatalf("req %d write=%v, want %v", i, r.Write, wantWrites[i])
		}
	}
	g2 := &Sequential{Base: 0, Beats: 1, Count: 3, WriteEvery: 1}
	for _, r := range drain(t, g2, 1) {
		if !r.Write {
			t.Fatal("WriteEvery=1 must produce all writes")
		}
	}
}

func TestSequentialWrap(t *testing.T) {
	g := &Sequential{Base: 0x100, Beats: 4, Count: 10, WrapBytes: 48}
	reqs := drain(t, g, 1)
	for _, r := range reqs {
		if r.Addr < 0x100 || r.Addr >= 0x100+48 {
			t.Fatalf("wrapped walk escaped window: %#x", r.Addr)
		}
	}
}

func TestRandomDeterministicUnderSeed(t *testing.T) {
	mk := func() *Random {
		return &Random{Seed: 42, Base: 0, WindowBytes: 1 << 20, MaxBeats: 16, WriteFrac: 0.3, MeanGap: 5, Count: 50}
	}
	a := drain(t, mk(), 7)
	b := drain(t, mk(), 7)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRandomResetReplays(t *testing.T) {
	g := &Random{Seed: 7, Base: 0, WindowBytes: 1 << 16, MaxBeats: 8, Count: 20}
	a := drain(t, g, 3)
	g.Reset()
	g.Next(0) // a Reset mid-stream rewinds as well
	g.Reset()
	b := drain(t, g, 3)
	if len(b) != len(a) {
		t.Fatalf("replayed %d requests, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Reset did not replay: %+v vs %+v", a[i], b[i])
		}
	}
}

func TestRandomRespects1KBBoundary(t *testing.T) {
	g := &Random{Seed: 3, Base: 0, WindowBytes: 1 << 18, MaxBeats: 16, Count: 200}
	for _, r := range drain(t, g, 1) {
		if amba.CrossesBoundary(r.Addr, amba.Size32, r.Beats, amba.KB) {
			t.Fatalf("random burst crosses 1KB: %#x x%d", r.Addr, r.Beats)
		}
	}
}

func TestBurstyPhases(t *testing.T) {
	g := &Bursty{Base: 0, Beats: 4, BurstTxns: 3, IdleGap: 100, Count: 6}
	reqs := drain(t, g, 10)
	// Within a phase: back-to-back (At == prevDone).
	if reqs[1].At != reqs[0].At+10 {
		t.Fatalf("intra-phase gap wrong: %v -> %v", reqs[0].At, reqs[1].At)
	}
	// Between phases: idle gap inserted at txn index 3.
	if reqs[3].At != reqs[2].At+10+100 {
		t.Fatalf("inter-phase gap wrong: %v -> %v", reqs[2].At, reqs[3].At)
	}
}

func TestStreamPeriodicIssue(t *testing.T) {
	g := &Stream{Base: 0, Beats: 4, Period: 50, Count: 4}
	var reqs []Req
	prevDone := sim.Cycle(0)
	for {
		r, ok := g.Next(prevDone)
		if !ok {
			break
		}
		reqs = append(reqs, r)
		prevDone = r.At + 5 // fast service
	}
	want := []sim.Cycle{0, 50, 100, 150}
	for i, r := range reqs {
		if r.At != want[i] {
			t.Fatalf("period issue %d at %v, want %v", i, r.At, want[i])
		}
	}
}

func TestStreamFallsBehindGracefully(t *testing.T) {
	g := &Stream{Base: 0, Beats: 4, Period: 10, Count: 3}
	r0, _ := g.Next(0)
	// Service takes far longer than the period: next issues immediately
	// after completion, not in the past.
	r1, _ := g.Next(r0.At + 100)
	if r1.At != r0.At+100 {
		t.Fatalf("overloaded stream issued at %v, want %v", r1.At, r0.At+100)
	}
}

func TestScriptReplay(t *testing.T) {
	s := &Script{Reqs: []Req{
		{At: 5, Addr: 0x10, Beats: 1, Burst: amba.BurstSingle},
		{At: 2, Addr: 0x20, Beats: 4, Burst: amba.BurstIncr4},
	}}
	r0, ok := s.Next(0)
	if !ok || r0.At != 5 {
		t.Fatalf("script r0 = %+v", r0)
	}
	// Absolute floor: prevDone later than At wins.
	r1, ok := s.Next(50)
	if !ok || r1.At != 50 {
		t.Fatalf("script r1 = %+v", r1)
	}
	if _, ok := s.Next(0); ok {
		t.Fatal("exhausted script must return false")
	}
	s.Reset()
	if _, ok := s.Next(0); !ok {
		t.Fatal("reset script must replay")
	}
}

func TestThreadedMatchesInner(t *testing.T) {
	mk := func() *Sequential {
		return &Sequential{Base: 0x1000, Beats: 4, Gap: 2, Count: 20, WriteEvery: 4}
	}
	plain := drain(t, mk(), 9)
	th := NewThreaded(mk())
	wrapped := drain(t, th, 9)
	if len(plain) != len(wrapped) {
		t.Fatalf("lengths %d/%d", len(plain), len(wrapped))
	}
	for i := range plain {
		if plain[i] != wrapped[i] {
			t.Fatalf("threaded diverged at %d", i)
		}
	}
	if th.Name() != "sequential+thread" {
		t.Fatalf("Name = %q", th.Name())
	}
}

func TestThreadedResetMidStream(t *testing.T) {
	th := NewThreaded(&Sequential{Base: 0, Beats: 1, Count: 10})
	th.Next(0)
	th.Next(0)
	th.Reset()
	r, ok := th.Next(0)
	if !ok || r.Addr != 0 {
		t.Fatalf("after reset got %+v ok=%v, want first request", r, ok)
	}
}

func TestGeneratorNames(t *testing.T) {
	gens := []Generator{
		&Sequential{}, &Random{}, &Bursty{}, &Stream{}, &Script{},
		&Sequential{NameStr: "dma0"},
	}
	for _, g := range gens {
		if g.Name() == "" {
			t.Errorf("%T has empty name", g)
		}
	}
	if gens[5].Name() != "dma0" {
		t.Fatal("NameStr override ignored")
	}
}

// TestWalkersSizeBurstsInBusBeats holds every address-walking generator
// to the bus it runs on: with BeatBytes set, each burst is legal at that
// beat size — aligned, inside one 1KB page — and walks advance by whole
// bursts of that width.
func TestWalkersSizeBurstsInBusBeats(t *testing.T) {
	for _, bb := range []int{1, 2, 4, 8, 16} {
		size := amba.SizeForBytes(bb)
		for _, g := range []Generator{
			&Random{Seed: 7, Base: 0x80000, WindowBytes: 1 << 18, MaxBeats: 16, WriteFrac: 0.3, MeanGap: 10, Count: 400, BeatBytes: bb},
			&Bursty{Base: 0x40000, Beats: 8, BurstTxns: 4, IdleGap: 100, Count: 400, BeatBytes: bb},
			&Stream{Base: 0x100000, Beats: 4, Period: 60, Count: 400, BeatBytes: bb},
			&Sequential{Base: 0, Beats: 8, Count: 400, BeatBytes: bb},
		} {
			var prev Req
			for i := 0; ; i++ {
				r, ok := g.Next(0)
				if !ok {
					break
				}
				if err := amba.ValidateBurst(r.Addr, r.Burst, size, r.Beats); err != nil {
					t.Fatalf("%s at %d-byte beats: request %d illegal: %v", g.Name(), bb, i, err)
				}
				if _, random := g.(*Random); !random && i > 0 && r.Addr-prev.Addr != uint32(prev.Beats*bb) {
					t.Fatalf("%s at %d-byte beats: walk steps %d bytes after a %d-beat burst", g.Name(), bb, r.Addr-prev.Addr, prev.Beats)
				}
				prev = r
			}
		}
	}
}
