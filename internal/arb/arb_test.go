package arb

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bi"
	"repro/internal/qos"
	"repro/internal/sim"
)

// ctxWith builds a minimal context over the given requests with QoS
// registers regs (keyed by master; absent masters read as the zero
// register).
func ctxWith(reqs []Request, regs map[int]qos.Reg) *Context {
	var file []qos.Reg
	for m, r := range regs {
		if m >= len(file) {
			file = append(file, make([]qos.Reg, m+1-len(file))...)
		}
		file[m] = r
	}
	return &Context{
		Now:              100,
		Reqs:             reqs,
		Regs:             file,
		LastGrant:        -1,
		UrgencyThreshold: 8,
	}
}

// statusOf returns an enabled BI provider whose answer depends only on
// the address.
func statusOf(fn func(addr uint32) bi.BankStatus) *bi.Provider {
	return scripted(func(_ sim.Cycle, addr uint32) bi.BankStatus { return fn(addr) })
}

func TestPipelineEmptyRequestSet(t *testing.T) {
	p := DefaultWith(AllEnabled())
	if _, ok := p.Select(ctxWith(nil, nil)); ok {
		t.Fatal("empty request set must not grant")
	}
}

func TestRoundRobinRotates(t *testing.T) {
	p := DefaultWith(Enabled{})
	reqs := []Request{{Master: 0}, {Master: 1}, {Master: 2}}
	ctx := ctxWith(reqs, nil)
	order := []int{}
	last := -1
	for i := 0; i < 6; i++ {
		ctx.LastGrant = last
		w, ok := p.Select(ctx)
		if !ok {
			t.Fatal("no grant")
		}
		last = reqs[w].Master
		order = append(order, last)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rotation %v, want %v", order, want)
		}
	}
}

func TestRealTimeFilterPrefersRT(t *testing.T) {
	regs := map[int]qos.Reg{
		0: {Class: qos.NRT},
		1: {Class: qos.RT, Objective: 1000},
	}
	p := DefaultWith(AllEnabled())
	ctx := ctxWith([]Request{{Master: 0, Since: 100}, {Master: 1, Since: 100}}, regs)
	w, ok := p.Select(ctx)
	if !ok || ctx.Reqs[w].Master != 1 {
		t.Fatalf("winner = %v/%v, want RT master 1", w, ok)
	}
}

func TestRealTimePassThroughWhenNoRT(t *testing.T) {
	p := DefaultWith(Enabled{RealTime: true})
	ctx := ctxWith([]Request{{Master: 0}, {Master: 1}}, map[int]qos.Reg{})
	if _, ok := p.Select(ctx); !ok {
		t.Fatal("all-NRT set must still grant")
	}
}

func TestUrgencyOverridesRealTime(t *testing.T) {
	// Master 0 is NRT but has an objective and is nearly overdue;
	// master 1 is RT with plenty of slack. Urgency runs before the RT
	// filter, so master 0 must win.
	regs := map[int]qos.Reg{
		0: {Class: qos.NRT, Objective: 105},
		1: {Class: qos.RT, Objective: 10000},
	}
	p := DefaultWith(AllEnabled())
	ctx := ctxWith([]Request{
		{Master: 0, Since: 0},  // waited 100, slack 5 <= threshold 8
		{Master: 1, Since: 90}, // slack huge
	}, regs)
	w, ok := p.Select(ctx)
	if !ok || ctx.Reqs[w].Master != 0 {
		t.Fatalf("urgent NRT master should win, got %v", ctx.Reqs[w].Master)
	}
}

func TestUrgencyPicksMinimumSlack(t *testing.T) {
	regs := map[int]qos.Reg{
		0: {Class: qos.RT, Objective: 104}, // slack 4
		1: {Class: qos.RT, Objective: 102}, // slack 2 — most urgent
	}
	p := DefaultWith(Enabled{Urgency: true})
	ctx := ctxWith([]Request{{Master: 0, Since: 0}, {Master: 1, Since: 0}}, regs)
	w, ok := p.Select(ctx)
	if !ok || ctx.Reqs[w].Master != 1 {
		t.Fatal("minimum-slack request should win")
	}
}

func TestPermissionVetoesRound(t *testing.T) {
	p := DefaultWith(AllEnabled())
	ctx := ctxWith([]Request{{Master: 0, Addr: 0x10}}, nil)
	ctx.Provider = statusOf(func(addr uint32) bi.BankStatus { return bi.BankStatus{Permit: false} })
	if _, ok := p.Select(ctx); ok {
		t.Fatal("permission filter should veto the round")
	}
	if p.Stats().Vetoed != 1 {
		t.Fatalf("Vetoed = %d", p.Stats().Vetoed)
	}
}

func TestPermissionDropsOnlyBlocked(t *testing.T) {
	p := DefaultWith(AllEnabled())
	ctx := ctxWith([]Request{{Master: 0, Addr: 0xBAD0}, {Master: 1, Addr: 0x40}}, nil)
	ctx.Provider = statusOf(func(addr uint32) bi.BankStatus {
		return bi.BankStatus{Permit: addr != 0xBAD0}
	})
	w, ok := p.Select(ctx)
	if !ok || ctx.Reqs[w].Master != 1 {
		t.Fatal("unblocked master should win")
	}
}

func TestBankAffinityPrefersOpenRow(t *testing.T) {
	p := DefaultWith(Enabled{BankAffinity: true})
	ctx := ctxWith([]Request{
		{Master: 0, Addr: 0x1000}, // idle bank
		{Master: 1, Addr: 0x2000}, // open row
		{Master: 2, Addr: 0x3000}, // neither
	}, nil)
	ctx.Provider = statusOf(func(addr uint32) bi.BankStatus {
		switch addr {
		case 0x1000:
			return bi.BankStatus{Permit: true, BankIdle: true}
		case 0x2000:
			return bi.BankStatus{Permit: true, RowOpen: true}
		}
		return bi.BankStatus{Permit: true}
	})
	w, _ := p.Select(ctx)
	if ctx.Reqs[w].Master != 1 {
		t.Fatalf("open-row request should win, got master %d", ctx.Reqs[w].Master)
	}
	// Without the open-row candidate, the idle bank wins.
	ctx.Reqs = ctx.Reqs[:1:1]
	ctx.Reqs = append(ctx.Reqs, Request{Master: 2, Addr: 0x3000})
	w, _ = p.Select(ctx)
	if ctx.Reqs[w].Master != 0 {
		t.Fatalf("idle-bank request should win, got master %d", ctx.Reqs[w].Master)
	}
}

func TestBandwidthPrefersUnderServed(t *testing.T) {
	regs := map[int]qos.Reg{
		0: {Quota: 0.5},
		1: {Quota: 0.5},
	}
	p := DefaultWith(Enabled{Bandwidth: true})
	ctx := ctxWith([]Request{{Master: 0}, {Master: 1}}, regs)
	ctx.Served = []uint64{90, 10}
	ctx.TotalBeats = 100
	w, _ := p.Select(ctx)
	if ctx.Reqs[w].Master != 1 {
		t.Fatal("under-served master should win")
	}
	// Everyone over quota: pass through, round robin decides.
	ctx.Served = []uint64{60, 60}
	ctx.TotalBeats = 120
	if _, ok := p.Select(ctx); !ok {
		t.Fatal("saturated quotas must not block granting")
	}
}

func TestWriteBufferGateBoostsWhenFull(t *testing.T) {
	p := DefaultWith(Enabled{WriteBuffer: true})
	reqs := []Request{{Master: 0}, {Master: 9, IsWriteBuf: true}}
	ctx := ctxWith(reqs, nil)
	ctx.WBCap = 8

	ctx.WBUsed = 7 // nearly full → drain wins
	w, _ := p.Select(ctx)
	if !ctx.Reqs[w].IsWriteBuf {
		t.Fatal("nearly-full write buffer should win arbitration")
	}

	ctx.WBUsed = 1 // nearly empty → demand traffic wins
	w, _ = p.Select(ctx)
	if ctx.Reqs[w].IsWriteBuf {
		t.Fatal("nearly-empty write buffer should be suppressed")
	}

	ctx.WBUsed = 4 // mid band → compete normally (round robin)
	if _, ok := p.Select(ctx); !ok {
		t.Fatal("mid-band should still grant")
	}
}

func TestWriteBufferAloneStillDrains(t *testing.T) {
	p := DefaultWith(Enabled{WriteBuffer: true})
	ctx := ctxWith([]Request{{Master: 9, IsWriteBuf: true}}, nil)
	ctx.WBCap = 8
	ctx.WBUsed = 1
	w, ok := p.Select(ctx)
	if !ok || !ctx.Reqs[w].IsWriteBuf {
		t.Fatal("lone write-buffer request must be granted even when nearly empty")
	}
}

func TestDefaultWithSubsets(t *testing.T) {
	p := DefaultWith(Enabled{})
	if !reflect.DeepEqual(p.stages, []int{len(filters) - 1}) || p.permission {
		t.Fatalf("empty Enabled should leave only round-robin, got stages %v", p.stages)
	}
	p = DefaultWith(Enabled{Permission: true, BankAffinity: true})
	if !reflect.DeepEqual(p.stages, []int{0, 4, 6}) || !p.permission {
		t.Fatalf("stages %v, want permission, bank affinity, round-robin", p.stages)
	}
	p = DefaultWith(AllEnabled())
	if len(p.stages) != 7 {
		t.Fatalf("AllEnabled should build 7 filters, got stages %v", p.stages)
	}
}

func TestPipelineStats(t *testing.T) {
	p := DefaultWith(AllEnabled())
	regs := map[int]qos.Reg{0: {Class: qos.RT, Objective: 500}, 1: {Class: qos.NRT}}
	ctx := ctxWith([]Request{{Master: 0, Since: 100}, {Master: 1, Since: 100}}, regs)
	p.Select(ctx)
	st := p.Stats()
	if st.Rounds != 1 || st.Grants != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Decisive["realtime"] != 1 {
		t.Fatalf("realtime filter should have been decisive: %+v", st.Decisive)
	}
	// The key set is part of the serialised result: a filter that was
	// never decisive has no key at all, not a zero.
	if want := map[string]uint64{"realtime": 1}; !reflect.DeepEqual(st.Decisive, want) {
		t.Fatalf("Decisive = %+v, want exactly %+v", st.Decisive, want)
	}
	st.Decisive["realtime"] = 99 // a copy: the pipeline's counts do not move
	if a, b := p.Stats(), p.Stats(); !reflect.DeepEqual(a, b) || a.Decisive["realtime"] != 1 {
		t.Fatalf("two Stats() calls disagree: %+v vs %+v", a, b)
	}
}

// Property: the pipeline always grants when there is at least one
// request and no permission veto, and the winner is one of the
// requests.
func TestPipelineAlwaysGrantsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]Request, n)
		regs := map[int]qos.Reg{}
		for i := range reqs {
			reqs[i] = Request{
				Master: i,
				Addr:   uint32(rng.Intn(1 << 20)),
				Write:  rng.Intn(2) == 0,
				Beats:  1 + rng.Intn(8),
				Since:  sim.Cycle(rng.Intn(100)),
			}
			if rng.Intn(2) == 0 {
				regs[i] = qos.Reg{Class: qos.RT, Objective: sim.Cycle(rng.Intn(500) + 1)}
			}
		}
		ctx := ctxWith(reqs, regs)
		ctx.WBCap = 8
		ctx.WBUsed = rng.Intn(9)
		p := DefaultWith(AllEnabled())
		w, ok := p.Select(ctx)
		return ok && w >= 0 && w < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitration is deterministic — the same context yields the
// same winner.
func TestPipelineDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 1
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Master: i, Addr: uint32(rng.Intn(1 << 16)), Since: sim.Cycle(rng.Intn(50))}
		}
		ctx1 := ctxWith(reqs, nil)
		ctx2 := ctxWith(reqs, nil)
		w1, ok1 := DefaultWith(AllEnabled()).Select(ctx1)
		w2, ok2 := DefaultWith(AllEnabled()).Select(ctx2)
		return ok1 == ok2 && w1 == w2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
