package tlm

import (
	"testing"

	"repro/internal/amba"
	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/platform"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TestNoStarvationUnderSaturation: every master keeps making progress
// under full contention, with and without the QoS filters.
func TestNoStarvationUnderSaturation(t *testing.T) {
	for _, filters := range []bool{true, false} {
		p := params(4)
		if !filters {
			p.Filters = config.PlainAHB(4).Filters
		}
		b, _, _ := build(t, p,
			&traffic.Sequential{Base: 0x000000, Beats: 16, Count: 50},
			&traffic.Sequential{Base: 0x080000, Beats: 16, Count: 50},
			&traffic.Sequential{Base: 0x100000, Beats: 16, Count: 50},
			&traffic.Sequential{Base: 0x180000, Beats: 16, Count: 50},
		)
		res := b.Run(0)
		if !res.Completed {
			t.Fatalf("filters=%v: starvation (run incomplete)", filters)
		}
		for i := 0; i < 4; i++ {
			if res.Stats.Masters[i].Txns != 50 {
				t.Fatalf("filters=%v: master %d finished %d/50", filters, i, res.Stats.Masters[i].Txns)
			}
		}
	}
}

// TestRefreshVetoRetries: with an aggressive refresh cadence the
// permission filter vetoes rounds, and the retry path must still drain
// the workload.
func TestRefreshVetoRetries(t *testing.T) {
	p := config.Default(2)
	p.DDR.TREFI = 60 // refresh every 60 cycles: constant interference
	p.DDR.TRFC = 12
	b, chk, _ := build(t, p,
		&traffic.Sequential{Base: 0, Beats: 4, Count: 60},
		&traffic.Random{Seed: 3, Base: 0x80000, WindowBytes: 1 << 16, MaxBeats: 4, WriteFrac: 0.5, Count: 60},
	)
	res := b.Run(0)
	if !res.Completed {
		t.Fatal("did not complete under aggressive refresh")
	}
	if res.Stats.DDR.Refreshes < 10 {
		t.Fatalf("only %d refreshes; cadence not exercised", res.Stats.DDR.Refreshes)
	}
	if chk.Total() != 0 {
		t.Fatalf("property violations: %v", chk.Violations())
	}
}

// TestIllegalBurstCaughtInCollectMode mirrors the RTL failure-injection
// test: a 1KB-crossing burst is flagged by the burst-legal property and
// the simulation continues.
func TestIllegalBurstCaughtInCollectMode(t *testing.T) {
	chk := &check.Checker{}
	p := params(1)
	b := New(platform.Config{Params: p, Gens: []traffic.Generator{&traffic.Script{Reqs: []traffic.Req{
		{At: 0, Addr: 0x3F8, Beats: 4, Burst: amba.BurstIncr4}, // crosses 1KB
		{At: 0, Addr: 0x100, Beats: 4, Burst: amba.BurstIncr4},
	}}}, Checker: chk})
	res := b.Run(2000)
	if !res.Completed {
		t.Fatal("collect-mode run should complete")
	}
	found := false
	for _, v := range chk.Violations() {
		if v.Property == "burst-legal" {
			found = true
		}
	}
	if !found {
		t.Fatalf("burst-legal violation missing: %v", chk.Violations())
	}
}

// TestBandwidthQuotaShapesShare: a master with a reserved quota gets a
// larger share of a saturated bus than an identical master without one.
func TestBandwidthQuotaShapesShare(t *testing.T) {
	p := params(2)
	p.Masters[0].BandwidthQuota = 0.7
	p.WriteBufferDepth = 0
	b, _, _ := build(t, p,
		&traffic.Sequential{Base: 0, Beats: 4, Count: 400},
		&traffic.Sequential{Base: 0x80000, Beats: 4, Count: 400},
	)
	// Cap the run so the contended phase dominates the measurement.
	res := b.Run(6000)
	m0, m1 := res.Stats.Masters[0].Txns, res.Stats.Masters[1].Txns
	if m0 <= m1 {
		t.Fatalf("quota-holding master should lead: m0=%d m1=%d", m0, m1)
	}
}

// TestUrgencyThresholdParameter: a tiny threshold makes urgency rare, a
// huge one makes it dominate; both must complete and the huge-threshold
// run must cut the RT master's worst latency.
func TestUrgencyThresholdParameter(t *testing.T) {
	run := func(threshold uint64) sim.Cycle {
		p := params(3)
		p.Masters[0].RealTime = true
		p.Masters[0].QoSObjective = 100
		p.UrgencyThreshold = threshold
		b, _, _ := build(t, p,
			&traffic.Stream{Base: 0x100000, Beats: 4, Period: 50, Count: 80},
			&traffic.Sequential{Base: 0, Beats: 16, Count: 200},
			&traffic.Sequential{Base: 0x80000, Beats: 16, Count: 200},
		)
		res := b.Run(0)
		if !res.Completed {
			t.Fatal("did not complete")
		}
		return res.Stats.Masters[0].LatencyMax
	}
	tight := run(1)
	loose := run(90)
	if loose > tight {
		t.Fatalf("larger urgency threshold should not worsen RT latency: thr=1 %d vs thr=90 %d", tight, loose)
	}
}

// TestBILatencyParameter: a longer BI pipeline delays hints; the
// interleaving benefit should not grow with added latency.
func TestBILatencyParameter(t *testing.T) {
	run := func(lat uint64) sim.Cycle {
		p := params(2)
		p.BILatency = lat
		rowBytes := p.AddrMap.RowBytes()
		stride := rowBytes * uint32(p.AddrMap.Banks())
		b, _, _ := build(t, p,
			&traffic.Sequential{Base: 0, Beats: 8, Count: 100, StrideBytes: stride},
			&traffic.Sequential{Base: rowBytes, Beats: 8, Count: 100, StrideBytes: stride},
		)
		res := b.Run(0)
		if !res.Completed {
			t.Fatal("did not complete")
		}
		return res.Cycles
	}
	fast, slow := run(1), run(6)
	if fast > slow {
		t.Fatalf("shorter BI latency should not be worse: lat1=%d lat6=%d", fast, slow)
	}
}

// TestTLMStatsMatchRTLPerMaster: beyond total cycles, the per-master
// profile (txns, beats, bytes) must agree between the models.
func TestTLMStatsMatchRTLPerMaster(t *testing.T) {
	p := params(3)
	mk := func() []traffic.Generator {
		return []traffic.Generator{
			&traffic.Sequential{Base: 0, Beats: 8, Count: 40, WriteEvery: 2},
			&traffic.Random{Seed: 8, Base: 0x80000, WindowBytes: 1 << 16, MaxBeats: 8, WriteFrac: 0.3, Count: 40},
			&traffic.Stream{Base: 0x100000, Beats: 4, Period: 60, Count: 40},
		}
	}
	tres := runTLMOnly(t, p, mk)
	rres := runRTLOnly(t, p, mk)
	for i := 0; i < 3; i++ {
		tm, rm := tres.Stats.Masters[i], rres.Stats.Masters[i]
		if tm.Txns != rm.Txns || tm.Beats != rm.Beats || tm.Bytes != rm.Bytes {
			t.Fatalf("master %d profile diverged: tlm{%d,%d,%d} rtl{%d,%d,%d}",
				i, tm.Txns, tm.Beats, tm.Bytes, rm.Txns, rm.Beats, rm.Bytes)
		}
		if tm.Reads != rm.Reads || tm.Writes != rm.Writes {
			t.Fatalf("master %d direction split diverged", i)
		}
	}
}

// runTLMOnly and runRTLOnly are small helpers for profile comparisons.
func runTLMOnly(t *testing.T, p config.Params, mk func() []traffic.Generator) platform.Result {
	t.Helper()
	b := New(platform.Config{Params: p, Gens: mk(), Checker: &check.Checker{PanicOnProperty: true}})
	res := b.Run(0)
	if !res.Completed {
		t.Fatal("TLM incomplete")
	}
	return res
}

func runRTLOnly(t *testing.T, p config.Params, mk func() []traffic.Generator) platform.Result {
	t.Helper()
	b := rtl.New(platform.Config{Params: p, Gens: mk(), Checker: &check.Checker{PanicOnProperty: true}})
	res := b.Run(0)
	if !res.Completed {
		t.Fatal("RTL incomplete")
	}
	return res
}
