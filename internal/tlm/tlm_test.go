package tlm

import (
	"testing"

	"repro/internal/amba"
	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/memmodel"
	"repro/internal/platform"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func build(t *testing.T, p config.Params, gens ...traffic.Generator) (*Bus, *check.Checker, *trace.Recorder) {
	t.Helper()
	chk := &check.Checker{PanicOnProperty: true}
	tr := trace.New(0)
	b := New(platform.Config{Params: p, Gens: gens, Checker: chk, Tracer: tr})
	return b, chk, tr
}

func params(masters int) config.Params {
	p := config.Default(masters)
	p.DDR = p.DDR.NoRefresh()
	return p
}

func TestSingleReadTimelineMatchesContract(t *testing.T) {
	p := params(1)
	p.WriteBufferDepth = 0
	p.BIEnabled = false
	b, _, tr := build(t, p, &traffic.Script{Reqs: []traffic.Req{
		{At: 0, Addr: 0x100, Beats: 4, Burst: amba.BurstIncr4},
	}})
	res := b.Run(2000)
	if !res.Completed {
		t.Fatal("did not complete")
	}
	r := tr.Records()[0]
	if r.Req != 1 || r.Grant != 2 {
		t.Fatalf("req/grant %d/%d, want 1/2", r.Req, r.Grant)
	}
	wantFirst := sim.Cycle(4) + p.DDR.TRCD + p.DDR.TCL
	if r.FirstData != wantFirst || r.Done != wantFirst+3 {
		t.Fatalf("first/done %d/%d, want %d/%d", r.FirstData, r.Done, wantFirst, wantFirst+3)
	}
}

func TestWriteDataIntegrity(t *testing.T) {
	for _, wbDepth := range []int{0, 8} {
		p := params(1)
		p.WriteBufferDepth = wbDepth
		b, _, _ := build(t, p, &traffic.Script{Reqs: []traffic.Req{
			{At: 0, Addr: 0x200, Beats: 4, Burst: amba.BurstIncr4, Write: true},
		}})
		if !b.Run(2000).Completed {
			t.Fatalf("wb=%d: did not complete", wbDepth)
		}
		for i := uint32(0); i < 16; i++ {
			want := memmodel.PatternByte(0, 0x200+i)
			if got := b.Mem().ByteAt(0x200 + i); got != want {
				t.Fatalf("wb=%d: mem[%#x] = %#x, want %#x", wbDepth, 0x200+i, got, want)
			}
		}
	}
}

func TestWriteBufferDrains(t *testing.T) {
	p := params(1)
	p.WriteBufferDepth = 4
	b, _, _ := build(t, p, &traffic.Sequential{Base: 0, Beats: 4, Count: 10, WriteEvery: 1})
	res := b.Run(10000)
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if res.Stats.WBPosted == 0 || res.Stats.WBDrained != res.Stats.WBPosted {
		t.Fatalf("posted=%d drained=%d", res.Stats.WBPosted, res.Stats.WBDrained)
	}
}

func TestMultiMasterAllComplete(t *testing.T) {
	p := params(3)
	b, chk, _ := build(t, p,
		&traffic.Sequential{Base: 0x0000, Beats: 8, Count: 20},
		&traffic.Random{Seed: 1, Base: 0x80000, WindowBytes: 1 << 16, MaxBeats: 8, WriteFrac: 0.4, Count: 20},
		&traffic.Stream{Base: 0x100000, Beats: 4, Period: 60, Count: 20},
	)
	res := b.Run(100000)
	if !res.Completed {
		t.Fatal("did not complete")
	}
	for i := 0; i < 3; i++ {
		if res.Stats.Masters[i].Txns != 20 {
			t.Fatalf("master %d completed %d txns", i, res.Stats.Masters[i].Txns)
		}
	}
	if chk.Total() != 0 {
		t.Fatalf("property violations: %v", chk.Violations())
	}
}

func TestRefreshEnabledCompletes(t *testing.T) {
	p := config.Default(2)
	b, _, _ := build(t, p,
		&traffic.Sequential{Base: 0, Beats: 4, Count: 50},
		&traffic.Sequential{Base: 0x80000, Beats: 4, Count: 50, WriteEvery: 2},
	)
	res := b.Run(300000)
	if !res.Completed {
		t.Fatal("did not complete with refresh enabled")
	}
	if res.Stats.DDR.Refreshes == 0 {
		t.Fatal("expected refreshes")
	}
}

// --- Cross-model validation: the heart of the reproduction. ---

// runBoth drives the identical workload through the pin-accurate model
// and the TLM and returns both cycle counts.
func runBoth(t *testing.T, p config.Params, mk func() []traffic.Generator) (rtlCycles, tlmCycles sim.Cycle) {
	t.Helper()
	rb := rtl.New(platform.Config{Params: p, Gens: mk(), Checker: &check.Checker{PanicOnProperty: true}})
	rres := rb.Run(2_000_000)
	if !rres.Completed {
		t.Fatal("RTL run did not complete")
	}
	tb := New(platform.Config{Params: p, Gens: mk(), Checker: &check.Checker{PanicOnProperty: true}})
	tres := tb.Run(2_000_000)
	if !tres.Completed {
		t.Fatal("TLM run did not complete")
	}
	return rres.Cycles, tres.Cycles
}

func pctErr(a, b sim.Cycle) float64 {
	d := float64(a) - float64(b)
	if d < 0 {
		d = -d
	}
	return 100 * d / float64(a)
}

func TestSingleMasterCycleAgreementExact(t *testing.T) {
	// With one master there is no arbitration interleaving and no
	// write-buffer contention: the TLM should agree with the
	// pin-accurate model cycle for cycle.
	cases := []struct {
		name string
		mk   func() []traffic.Generator
	}{
		{"sequential reads", func() []traffic.Generator {
			return []traffic.Generator{&traffic.Sequential{Base: 0, Beats: 8, Count: 50, Gap: 3}}
		}},
		{"random mixed", func() []traffic.Generator {
			return []traffic.Generator{&traffic.Random{Seed: 9, Base: 0, WindowBytes: 1 << 18, MaxBeats: 8, WriteFrac: 0.3, MeanGap: 4, Count: 50}}
		}},
		{"stream", func() []traffic.Generator {
			return []traffic.Generator{&traffic.Stream{Base: 0, Beats: 4, Period: 40, Count: 50}}
		}},
	}
	for _, c := range cases {
		p := params(1)
		p.WriteBufferDepth = 0 // no posted-write drain interleaving
		r, m := runBoth(t, p, c.mk)
		if r != m {
			t.Errorf("%s: RTL %d vs TLM %d cycles (want exact agreement)", c.name, r, m)
		}
	}
}

func TestMultiMasterCycleAgreementClose(t *testing.T) {
	// Contended multi-master workloads: the TLM's documented
	// abstractions may cost a few cycles; the error must stay small
	// (the paper reports < 3% on average).
	cases := []struct {
		name string
		mk   func() []traffic.Generator
	}{
		{"2x sequential", func() []traffic.Generator {
			return []traffic.Generator{
				&traffic.Sequential{Base: 0x0000, Beats: 4, Count: 60},
				&traffic.Sequential{Base: 0x80000, Beats: 4, Count: 60},
			}
		}},
		{"mixed rw", func() []traffic.Generator {
			return []traffic.Generator{
				&traffic.Sequential{Base: 0x0000, Beats: 8, Count: 40, WriteEvery: 2},
				&traffic.Random{Seed: 5, Base: 0x80000, WindowBytes: 1 << 16, MaxBeats: 8, WriteFrac: 0.5, Count: 40},
				&traffic.Stream{Base: 0x100000, Beats: 4, Period: 50, Count: 40},
			}
		}},
	}
	for _, c := range cases {
		p := params(len(c.mk()))
		r, m := runBoth(t, p, c.mk)
		if e := pctErr(r, m); e > 5 {
			t.Errorf("%s: RTL %d vs TLM %d cycles (%.2f%% error, want <= 5%%)", c.name, r, m, e)
		}
	}
}

func TestCrossModelMemoryIdentical(t *testing.T) {
	// After the same write-heavy workload, both models' memories hold
	// identical contents.
	mk := func() []traffic.Generator {
		return []traffic.Generator{
			&traffic.Sequential{Base: 0x1000, Beats: 4, Count: 30, WriteEvery: 1},
			&traffic.Random{Seed: 11, Base: 0x40000, WindowBytes: 1 << 14, MaxBeats: 4, WriteFrac: 1.0, Count: 30},
		}
	}
	p := params(2)
	rb := rtl.New(platform.Config{Params: p, Gens: mk()})
	if !rb.Run(0).Completed {
		t.Fatal("RTL incomplete")
	}
	tb := New(platform.Config{Params: p, Gens: mk()})
	if !tb.Run(0).Completed {
		t.Fatal("TLM incomplete")
	}
	for _, base := range []uint32{0x1000, 0x40000} {
		for off := uint32(0); off < 1<<14; off += 97 {
			a := base + off
			if rv, tv := rb.Mem().ByteAt(a), tb.Mem().ByteAt(a); rv != tv {
				t.Fatalf("memory diverged at %#x: rtl=%#x tlm=%#x", a, rv, tv)
			}
		}
	}
}

func TestPipeliningReducesCyclesTLM(t *testing.T) {
	run := func(pipelining bool) sim.Cycle {
		p := params(2)
		p.Pipelining = pipelining
		b, _, _ := build(t, p,
			&traffic.Sequential{Base: 0x0000, Beats: 4, Count: 30},
			&traffic.Sequential{Base: 0x80000, Beats: 4, Count: 30},
		)
		res := b.Run(100000)
		if !res.Completed {
			t.Fatal("did not complete")
		}
		return res.Cycles
	}
	if on, off := run(true), run(false); on >= off {
		t.Fatalf("pipelining should reduce cycles: on=%d off=%d", on, off)
	}
}

func TestCycleCapReturnsIncomplete(t *testing.T) {
	p := params(1)
	b, _, _ := build(t, p, &traffic.Sequential{Base: 0, Beats: 4, Count: 100000})
	res := b.Run(100)
	if res.Completed {
		t.Fatal("should not complete in 100 cycles")
	}
}

func TestMismatchedGeneratorsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(platform.Config{Params: params(2), Gens: []traffic.Generator{&traffic.Sequential{Count: 1, Beats: 1}}})
}
