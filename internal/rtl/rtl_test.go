package rtl

import (
	"strings"
	"testing"

	"repro/internal/amba"
	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/memmodel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// build assembles a platform with property panics enabled so any
// protocol slip fails the test immediately.
func build(t *testing.T, p config.Params, gens ...traffic.Generator) (*Bus, *check.Checker, *trace.Recorder) {
	t.Helper()
	chk := &check.Checker{PanicOnProperty: true}
	tr := trace.New(0)
	b := New(Config{Params: p, Gens: gens, Checker: chk, Tracer: tr})
	return b, chk, tr
}

func params(masters int) config.Params {
	p := config.Default(masters)
	p.DDR = p.DDR.NoRefresh()
	return p
}

func TestSingleReadTimeline(t *testing.T) {
	// One master, one 4-beat read at cycle 0. Canonical timeline:
	// request visible 1, arbitration at 1, grant visible 2, address
	// phase 3, access at 4 — row miss: first data 4+tRCD+tCL, four
	// beats.
	p := params(1)
	p.WriteBufferDepth = 0
	p.BIEnabled = false // no hint pre-activation: pure demand timing
	b, _, tr := build(t, p, &traffic.Script{Reqs: []traffic.Req{
		{At: 0, Addr: 0x100, Beats: 4, Burst: amba.BurstIncr4},
	}})
	res := b.Run(2000)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("%d trace records", len(recs))
	}
	r := recs[0]
	if r.Req != 1 {
		t.Errorf("req visible at %d, want 1", r.Req)
	}
	if r.Grant != 2 {
		t.Errorf("grant visible at %d, want 2", r.Grant)
	}
	tm := p.DDR
	wantFirst := sim.Cycle(4) + tm.TRCD + tm.TCL
	if r.FirstData != wantFirst {
		t.Errorf("first data at %d, want %d", r.FirstData, wantFirst)
	}
	if r.Done != wantFirst+3 {
		t.Errorf("done at %d, want %d", r.Done, wantFirst+3)
	}
	if r.Kind != "miss" {
		t.Errorf("kind %q, want miss", r.Kind)
	}
	if res.Stats.Masters[0].Txns != 1 || res.Stats.Masters[0].Beats != 4 {
		t.Errorf("master stats %+v", res.Stats.Masters[0])
	}
}

func TestSequentialReadsRowHit(t *testing.T) {
	// Back-to-back sequential reads in one row: after the first miss,
	// subsequent accesses must be row hits. BI off so the first access
	// is a genuine miss rather than a hint-warmed hit.
	p := params(1)
	p.BIEnabled = false
	b, _, tr := build(t, p, &traffic.Sequential{Base: 0x0, Beats: 8, Count: 5})
	res := b.Run(5000)
	if !res.Completed {
		t.Fatal("did not complete")
	}
	recs := tr.Records()
	if len(recs) != 5 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].Kind != "miss" {
		t.Errorf("first access %q, want miss", recs[0].Kind)
	}
	for i, r := range recs[1:] {
		if r.Kind != "hit" {
			t.Errorf("access %d kind %q, want hit", i+1, r.Kind)
		}
	}
}

func TestWriteDataIntegrity(t *testing.T) {
	// Writes land in memory with the master's deterministic pattern,
	// whether posted through the write buffer or sent directly.
	for _, wbDepth := range []int{0, 8} {
		p := params(1)
		p.WriteBufferDepth = wbDepth
		b, _, _ := build(t, p, &traffic.Script{Reqs: []traffic.Req{
			{At: 0, Addr: 0x200, Beats: 4, Burst: amba.BurstIncr4, Write: true},
		}})
		res := b.Run(2000)
		if !res.Completed {
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

func TestReadAfterWriteRoundTrip(t *testing.T) {
	p := params(1)
	b, _, _ := build(t, p, &traffic.Script{Reqs: []traffic.Req{
		{At: 0, Addr: 0x300, Beats: 4, Burst: amba.BurstIncr4, Write: true},
		{At: 0, Addr: 0x300, Beats: 4, Burst: amba.BurstIncr4},
	}})
	res := b.Run(5000)
	if !res.Completed {
		t.Fatal("did not complete")
	}
	got := b.LastRead(0)
	if len(got) != 16 {
		t.Fatalf("read %d bytes", len(got))
	}
	for i, v := range got {
		if want := memmodel.PatternByte(0, 0x300+uint32(i)); v != want {
			t.Fatalf("readback[%d] = %#x, want %#x", i, v, want)
		}
	}
}

func TestPostedWriteFasterThanDirect(t *testing.T) {
	run := func(depth int) sim.Cycle {
		p := params(1)
		p.WriteBufferDepth = depth
		b, _, tr := build(t, p, &traffic.Script{Reqs: []traffic.Req{
			{At: 0, Addr: 0x400, Beats: 4, Burst: amba.BurstIncr4, Write: true},
		}})
		if !b.Run(2000).Completed {
			t.Fatal("did not complete")
		}
		return tr.Records()[0].Done
	}
	posted := run(8)
	direct := run(0)
	if posted >= direct {
		t.Fatalf("posted write (%d) should finish before direct write (%d)", posted, direct)
	}
}

func TestWriteBufferDrains(t *testing.T) {
	p := params(1)
	p.WriteBufferDepth = 4
	b, _, _ := build(t, p, &traffic.Sequential{Base: 0, Beats: 4, Count: 10, WriteEvery: 1})
	res := b.Run(10000)
	if !res.Completed {
		t.Fatal("did not complete (write buffer failed to drain)")
	}
	if res.Stats.WBPosted == 0 {
		t.Fatal("no writes were posted")
	}
	if res.Stats.WBDrained != res.Stats.WBPosted {
		t.Fatalf("posted %d but drained %d", res.Stats.WBPosted, res.Stats.WBDrained)
	}
	// The write-buffer pseudo-master's drains are accounted on its own
	// port.
	if res.Stats.Masters[1].Txns != res.Stats.WBDrained {
		t.Fatalf("wb port txns %d, drains %d", res.Stats.Masters[1].Txns, res.Stats.WBDrained)
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
			t.Fatalf("master %d completed %d txns, want 20", i, res.Stats.Masters[i].Txns)
		}
	}
	if chk.Total() != 0 {
		t.Fatalf("property violations: %v", chk.Violations())
	}
	if res.Stats.Utilization() <= 0 {
		t.Fatal("utilization should be positive")
	}
}

func TestPipeliningReducesCycles(t *testing.T) {
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
	on, off := run(true), run(false)
	if on >= off {
		t.Fatalf("pipelining should reduce cycles: on=%d off=%d", on, off)
	}
}

func TestBIHintsImproveThroughput(t *testing.T) {
	// Two masters striding through different banks: with BI the
	// controller pre-activates the next bank during the current burst.
	run := func(biOn bool) sim.Cycle {
		p := params(2)
		p.BIEnabled = biOn
		b, _, _ := build(t, p,
			&traffic.Sequential{Base: 0x0000, Beats: 4, Count: 40},
			&traffic.Sequential{Base: 0x00400, Beats: 4, Count: 40}, // next bank
		)
		res := b.Run(100000)
		if !res.Completed {
			t.Fatal("did not complete")
		}
		return res.Cycles
	}
	on, off := run(true), run(false)
	if on > off {
		t.Fatalf("BI hints should not hurt: on=%d off=%d", on, off)
	}
}

func TestQoSUrgencyProtectsRTMaster(t *testing.T) {
	// An RT stream master competing with two aggressive NRT masters:
	// with the urgency/realtime filters its worst-case latency must be
	// dramatically better than without any QoS filters.
	run := func(filters bool) sim.Cycle {
		p := params(3)
		p.Masters[0].RealTime = true
		p.Masters[0].QoSObjective = 60
		if !filters {
			p.Filters.Urgency = false
			p.Filters.RealTime = false
		}
		b, _, _ := build(t, p,
			&traffic.Stream{Base: 0x100000, Beats: 4, Period: 40, Count: 50},
			&traffic.Sequential{Base: 0x0000, Beats: 16, Count: 200},
			&traffic.Sequential{Base: 0x80000, Beats: 16, Count: 200},
		)
		res := b.Run(200000)
		if !res.Completed {
			t.Fatal("did not complete")
		}
		return res.Stats.Masters[0].LatencyMax
	}
	with, without := run(true), run(false)
	if with > without {
		t.Fatalf("QoS filters should bound RT latency: with=%d without=%d", with, without)
	}
}

func TestRefreshDoesNotDeadlock(t *testing.T) {
	p := config.Default(2) // refresh enabled
	b, _, _ := build(t, p,
		&traffic.Sequential{Base: 0, Beats: 4, Count: 50},
		&traffic.Sequential{Base: 0x80000, Beats: 4, Count: 50, WriteEvery: 2},
	)
	res := b.Run(300000)
	if !res.Completed {
		t.Fatal("refresh-enabled run did not complete")
	}
	if res.Stats.DDR.Refreshes == 0 {
		t.Fatal("expected refreshes to occur")
	}
}

func TestCycleCapReturnsIncomplete(t *testing.T) {
	p := params(1)
	b, _, _ := build(t, p, &traffic.Sequential{Base: 0, Beats: 4, Count: 1000})
	res := b.Run(50)
	if res.Completed {
		t.Fatal("run within 50 cycles should not complete 1000 txns")
	}
	if res.Cycles != 50 {
		t.Fatalf("cycles %d, want 50", res.Cycles)
	}
}

func TestMismatchedGeneratorsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Params: params(2), Gens: []traffic.Generator{&traffic.Sequential{Count: 1, Beats: 1}}})
}

func TestWaveformDump(t *testing.T) {
	var vcd strings.Builder
	p := params(2)
	b := New(Config{
		Params: p,
		Gens: []traffic.Generator{
			&traffic.Sequential{Base: 0, Beats: 4, Count: 5},
			&traffic.Sequential{Base: 0x80000, Beats: 4, Count: 5, WriteEvery: 1},
		},
		Waveform: &vcd,
	})
	if !b.Run(0).Completed {
		t.Fatal("did not complete")
	}
	out := vcd.String()
	for _, want := range []string{
		"$var wire 1", "hbusreq0", "hgrant1", "haddr", "hready", "$enddefinitions",
		"#0", // at least one timestamped change
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("waveform missing %q", want)
		}
	}
	// Grants must actually toggle in the dump.
	if !strings.Contains(out, "1\"") && !strings.Contains(out, "1%") {
		t.Log(out[:400])
	}
	if len(out) < 500 {
		t.Fatalf("suspiciously small waveform (%d bytes)", len(out))
	}
}
