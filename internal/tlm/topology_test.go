package tlm

import (
	"testing"

	"repro/internal/amba"
	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/memmodel"
	"repro/internal/platform"
	"repro/internal/rtl"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// sramParams maps a 64 KiB SRAM with 2 wait states above the DDR.
func sramParams(masters int) config.Params {
	p := params(masters)
	p.SRAM = config.SRAMCfg{
		Enabled:    true,
		Base:       uint32(p.AddrMap.Capacity()),
		Size:       64 << 10,
		WaitStates: 2,
	}
	return p
}

func TestSRAMAccessTiming(t *testing.T) {
	p := sramParams(1)
	p.BIEnabled = false
	base := p.SRAM.Base
	b, _, tr := build(t, p, &traffic.Script{Reqs: []traffic.Req{
		{At: 0, Addr: base, Beats: 4, Burst: amba.BurstIncr4},
	}})
	if !b.Run(1000).Completed {
		t.Fatal("did not complete")
	}
	r := tr.Records()[0]
	if r.Kind != "sram" {
		t.Fatalf("kind %q, want sram", r.Kind)
	}
	// Address phase at 3 (T=1), first beat at A+1+wait = 4+2.
	if r.FirstData != 6 || r.Done != 9 {
		t.Fatalf("first/done %d/%d, want 6/9", r.FirstData, r.Done)
	}
}

func TestSRAMDataRoundTrip(t *testing.T) {
	p := sramParams(1)
	base := p.SRAM.Base
	b, _, _ := build(t, p, &traffic.Script{Reqs: []traffic.Req{
		{At: 0, Addr: base + 0x40, Beats: 4, Burst: amba.BurstIncr4, Write: true},
		{At: 0, Addr: base + 0x40, Beats: 4, Burst: amba.BurstIncr4},
	}})
	if !b.Run(1000).Completed {
		t.Fatal("did not complete")
	}
	for i := uint32(0); i < 16; i++ {
		if got, want := b.Mem().ByteAt(base+0x40+i), memmodel.PatternByte(0, base+0x40+i); got != want {
			t.Fatalf("sram[%#x] = %#x, want %#x", base+0x40+i, got, want)
		}
	}
}

func TestUnmappedAddressErrors(t *testing.T) {
	p := sramParams(1)
	unmapped := p.SRAM.Base + p.SRAM.Size + 0x1000
	b, _, tr := build(t, p, &traffic.Script{Reqs: []traffic.Req{
		{At: 0, Addr: unmapped, Beats: 4, Burst: amba.BurstIncr4},
		{At: 0, Addr: 0x100, Beats: 4, Burst: amba.BurstIncr4}, // normal follow-up
	}})
	res := b.Run(1000)
	if !res.Completed {
		t.Fatal("did not complete (error path wedged the bus)")
	}
	if tr.Records()[0].Kind != "error" {
		t.Fatalf("kind %q, want error", tr.Records()[0].Kind)
	}
	if res.Stats.Masters[0].Errors != 1 {
		t.Fatalf("errors = %d, want 1", res.Stats.Masters[0].Errors)
	}
	if res.Stats.Masters[0].Txns != 2 {
		t.Fatalf("txns = %d, want 2 (bus must recover after ERROR)", res.Stats.Masters[0].Txns)
	}
}

func TestSRAMCrossModelAgreement(t *testing.T) {
	// Mixed DDR + SRAM + one unmapped access through both models: the
	// cycle counts and error accounting must agree.
	mk := func() []traffic.Generator {
		p := sramParams(2)
		base := p.SRAM.Base
		return []traffic.Generator{
			&traffic.Script{Reqs: []traffic.Req{
				{At: 0, Addr: 0x0000, Beats: 8, Burst: amba.BurstIncr8},
				{At: 0, Addr: base, Beats: 4, Burst: amba.BurstIncr4, Write: true},
				{At: 0, Addr: base + p.SRAM.Size + 64, Beats: 1, Burst: amba.BurstSingle},
				{At: 0, Addr: 0x0100, Beats: 4, Burst: amba.BurstIncr4, Write: true},
			}},
			&traffic.Sequential{Base: base + 0x8000, Beats: 4, Count: 20},
		}
	}
	p := sramParams(2)
	rb := rtl.New(platform.Config{Params: p, Gens: mk(), Checker: &check.Checker{PanicOnProperty: true}, Tracer: trace.New(0)})
	rres := rb.Run(0)
	tb := New(platform.Config{Params: p, Gens: mk(), Checker: &check.Checker{PanicOnProperty: true}, Tracer: trace.New(0)})
	tres := tb.Run(0)
	if !rres.Completed || !tres.Completed {
		t.Fatal("incomplete")
	}
	if rres.Cycles != tres.Cycles {
		t.Fatalf("cycles diverged: rtl=%d tlm=%d", rres.Cycles, tres.Cycles)
	}
	if rres.Stats.Masters[0].Errors != 1 || tres.Stats.Masters[0].Errors != 1 {
		t.Fatalf("errors rtl=%d tlm=%d, want 1/1",
			rres.Stats.Masters[0].Errors, tres.Stats.Masters[0].Errors)
	}
}

func TestPlainAHBvsAHBPlus(t *testing.T) {
	// The paper's motivation: plain AMBA2.0 cannot guarantee QoS and
	// leaves throughput on the table. Same workload, both platforms.
	mk := func() []traffic.Generator {
		return []traffic.Generator{
			&traffic.Stream{Base: 0x100000, Beats: 4, Period: 40, Count: 150},
			&traffic.Sequential{Base: 0x000000, Beats: 16, Count: 300},
			&traffic.Sequential{Base: 0x080000, Beats: 16, Count: 300, WriteEvery: 2},
		}
	}
	setQoS := func(p *config.Params) {
		p.Masters[0].RealTime = true
		p.Masters[0].QoSObjective = 80
	}
	pPlus := config.Default(3)
	pPlus.DDR = pPlus.DDR.NoRefresh()
	setQoS(&pPlus)
	pPlain := config.PlainAHB(3)
	pPlain.DDR = pPlain.DDR.NoRefresh()
	setQoS(&pPlain)

	plus := New(platform.Config{Params: pPlus, Gens: mk()})
	plusRes := plus.Run(0)
	plain := New(platform.Config{Params: pPlain, Gens: mk()})
	plainRes := plain.Run(0)
	if !plusRes.Completed || !plainRes.Completed {
		t.Fatal("incomplete")
	}
	if plusRes.Stats.Masters[0].LatencyMax >= plainRes.Stats.Masters[0].LatencyMax {
		t.Fatalf("AHB+ should bound the RT master's worst-case latency: ahb+=%d plain=%d",
			plusRes.Stats.Masters[0].LatencyMax, plainRes.Stats.Masters[0].LatencyMax)
	}
	if plusRes.Stats.TotalViolations() > plainRes.Stats.TotalViolations() {
		t.Fatalf("AHB+ should not violate more: ahb+=%d plain=%d",
			plusRes.Stats.TotalViolations(), plainRes.Stats.TotalViolations())
	}
}
