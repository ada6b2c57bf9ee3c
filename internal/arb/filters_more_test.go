package arb

import (
	"math/rand"
	"testing"

	"repro/internal/bi"
	"repro/internal/qos"
	"repro/internal/sim"
)

func TestUrgencyIgnoresMastersWithoutObjective(t *testing.T) {
	regs := map[int]qos.Reg{1: {Class: qos.RT, Objective: 1000}}
	p := DefaultWith(Enabled{Urgency: true})
	// Master 0 has no objective: infinite slack, never urgent.
	ctx := ctxWith([]Request{{Master: 0, Since: 0}, {Master: 1, Since: 99}}, regs)
	w, ok := p.Select(ctx)
	if !ok {
		t.Fatal("no grant")
	}
	// Neither is urgent (slack huge): round robin decides → master 0.
	if ctx.Reqs[w].Master != 0 {
		t.Fatalf("non-urgent round should fall to round robin, got %d", ctx.Reqs[w].Master)
	}
}

func TestUrgencyZeroSlackFloors(t *testing.T) {
	// A request already past its objective has slack 0 (floored), and
	// must win over one with slack 1.
	regs := map[int]qos.Reg{
		0: {Class: qos.RT, Objective: 10},  // waited 100 → slack 0
		1: {Class: qos.RT, Objective: 101}, // waited 100 → slack 1
	}
	p := DefaultWith(Enabled{Urgency: true})
	ctx := ctxWith([]Request{{Master: 0, Since: 0}, {Master: 1, Since: 0}}, regs)
	ctx.LastGrant = 0 // round robin would pick m1; urgency must override
	w, _ := p.Select(ctx)
	if ctx.Reqs[w].Master != 0 {
		t.Fatal("overdue request must win")
	}
}

func TestBandwidthNilServedFnPassesThrough(t *testing.T) {
	p := DefaultWith(Enabled{Bandwidth: true})
	ctx := ctxWith([]Request{{Master: 0}, {Master: 1}}, map[int]qos.Reg{0: {Quota: 0.5}})
	ctx.Served = nil
	ctx.TotalBeats = 100
	if _, ok := p.Select(ctx); !ok {
		t.Fatal("nil accounting must not block grants")
	}
}

func TestBankAffinityAllColdPassesThrough(t *testing.T) {
	p := DefaultWith(Enabled{BankAffinity: true})
	ctx := ctxWith([]Request{{Master: 0}, {Master: 1}}, nil)
	ctx.Provider = statusOf(func(addr uint32) bi.BankStatus { return bi.BankStatus{Permit: true} })
	if _, ok := p.Select(ctx); !ok {
		t.Fatal("no-affinity round must still grant")
	}
}

func TestRoundRobinWrapsPastHighestMaster(t *testing.T) {
	p := DefaultWith(Enabled{})
	reqs := []Request{{Master: 0}, {Master: 2}}
	ctx := ctxWith(reqs, nil)
	ctx.LastGrant = 2 // highest master granted last → wrap to 0
	w, _ := p.Select(ctx)
	if reqs[w].Master != 0 {
		t.Fatalf("wrap-around failed, got master %d", reqs[w].Master)
	}
}

func TestPipelineVetoCountsOnlyPermission(t *testing.T) {
	p := DefaultWith(AllEnabled())
	ctx := ctxWith([]Request{{Master: 0, Addr: 1}}, nil)
	blocked := true
	ctx.Provider = statusOf(func(addr uint32) bi.BankStatus { return bi.BankStatus{Permit: !blocked} })
	if _, ok := p.Select(ctx); ok {
		t.Fatal("should veto")
	}
	blocked = false
	ctx.Now++ // a provider's answer may only change with the cycle
	if _, ok := p.Select(ctx); !ok {
		t.Fatal("should grant after unblock")
	}
	st := p.Stats()
	if st.Vetoed != 1 || st.Grants != 1 || st.Rounds != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFilterNamesAndVetoFlags(t *testing.T) {
	// The names are result bytes (stats.Bus.FilterDecisive keys).
	want := []string{"permission", "urgency", "realtime", "bandwidth", "bankaffinity", "writebuffer", "roundrobin"}
	for i, f := range filters {
		if f.name != want[i] {
			t.Errorf("filter %d is %q, want %q", i, f.name, want[i])
		}
	}
	// Only permission may empty a non-empty candidate set: every other
	// filter passes it through instead.
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 160)
	for n := 0; n < 500; n++ {
		rng.Read(data)
		c := genCase(data)
		ctx := &Context{Regs: c.regs, Provider: c.prov, WBCap: c.wbCap, UrgencyThreshold: c.thresh}
		for _, r := range c.rounds {
			if len(r.reqs) == 0 {
				continue
			}
			ctx.Now, ctx.Reqs, ctx.WBUsed, ctx.Served, ctx.TotalBeats = r.now, r.reqs, r.wbUsed, r.served, r.total
			ctx.LastGrant = max(r.lastGrant, -1)
			for _, f := range filters[1:] {
				all := make([]int, len(r.reqs))
				for i := range all {
					all[i] = i
				}
				if len(f.apply(ctx, all)) == 0 {
					t.Fatalf("%s emptied %d candidates", f.name, len(all))
				}
			}
		}
	}
}

func TestWriteBufferGateOnlyOthersWhenEmptyBand(t *testing.T) {
	// Occupancy exactly at the 1/4 boundary with a lone WB request:
	// the drain must still be grantable (pass-through protection).
	p := DefaultWith(Enabled{WriteBuffer: true})
	ctx := ctxWith([]Request{{Master: 5, IsWriteBuf: true}}, nil)
	ctx.WBCap = 8
	ctx.WBUsed = 2
	w, ok := p.Select(ctx)
	if !ok || !ctx.Reqs[w].IsWriteBuf {
		t.Fatal("lone drain at low occupancy must be granted")
	}
}

func TestContextSinceDrivesUrgencyNotArrivalOrder(t *testing.T) {
	// Request order in the slice must not matter; Since does.
	regs := map[int]qos.Reg{
		0: {Class: qos.RT, Objective: 50},
		1: {Class: qos.RT, Objective: 50},
	}
	p := DefaultWith(Enabled{Urgency: true})
	// Master 1 listed first but waited less.
	ctx := ctxWith([]Request{{Master: 1, Since: 95}, {Master: 0, Since: 55}}, regs)
	ctx.Now = 100
	ctx.UrgencyThreshold = 10
	w, _ := p.Select(ctx)
	if ctx.Reqs[w].Master != 0 {
		t.Fatal("longest-waiting urgent request must win regardless of slice order")
	}
}

func TestPipelineScratchReuseAcrossRounds(t *testing.T) {
	// Many rounds of different sizes on one pipeline: results stay
	// correct (guards against scratch-buffer aliasing bugs).
	p := DefaultWith(AllEnabled())
	for n := 1; n <= 6; n++ {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Master: i, Since: sim.Cycle(i)}
		}
		ctx := ctxWith(reqs, nil)
		w, ok := p.Select(ctx)
		if !ok || w < 0 || w >= n {
			t.Fatalf("n=%d: bad selection %d/%v", n, w, ok)
		}
	}
}
