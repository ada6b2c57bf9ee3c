package tlm

import (
	"reflect"
	"testing"

	"repro/internal/amba"
	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/platform"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TestDrainCompletionTiesWithArbitrationRound drives the agenda's one
// ordering rule in the corner where the order shows. Two posted writes
// queue up, the first drain completes at cycle tie with the second
// write still queued, and master 2's read becomes visible at tie with
// nothing to arbitrate the cycle before — so both slots hold tie. The
// first refresh falls due on that cycle too, so the tied round is
// vetoed.
//
// Run takes the drain completion first: the write buffer re-requests
// for tie+2 before the round runs, the round sees that request as not
// yet visible and, vetoed, arms one successor at the refresh-clear
// cycle. Round first, the drain completion would arm tie+2 over it — a
// second vetoed round, one more in ArbRounds, which is in the result
// bytes. Neither slot may be lost to the tie, and the outcome must be
// the pin-accurate model's, cycle for cycle.
func TestDrainCompletionTiesWithArbitrationRound(t *testing.T) {
	p := config.Default(3)
	p.WriteBufferDepth = 4
	// Plain round-robin between a master and the write buffer, so the
	// second write is posted before the first drain is granted.
	p.Filters.BankAffinity = false
	p.Filters.WriteBuffer = false
	tie := p.DDR.TREFI
	w := func(at sim.Cycle, addr uint32, write bool) traffic.Req {
		return traffic.Req{At: at, Addr: addr, Beats: 4, Burst: amba.BurstIncr4, Write: write}
	}
	mk := func() []traffic.Generator {
		return []traffic.Generator{
			&traffic.Script{Reqs: []traffic.Req{w(tie-18, 0x200, true)}},
			&traffic.Script{Reqs: []traffic.Req{w(tie-18, 0x8200, true)}},
			&traffic.Script{Reqs: []traffic.Req{w(tie-1, 0x14000, false), w(tie, 0x14100, true)}},
		}
	}

	tb := New(platform.Config{Params: p, Gens: mk(), Checker: &check.Checker{PanicOnProperty: true}})
	tb.Run(tie - 1)
	if tb.wbDoneAt != tie || tb.nextArbAt != tie || len(tb.wb.queue) != 1 {
		t.Fatalf("no tie to test: drain done at %v, round at %v, %d queued (want %v, %v, 1)",
			tb.wbDoneAt, tb.nextArbAt, len(tb.wb.queue), tie, tie)
	}
	tb.Run(tie)
	clear := tb.Engine().RefreshClear(tie + 1)
	if !tb.wb.pending || tb.wb.rv != tie+2 || clear <= tie+2 {
		t.Fatalf("order would not show: write buffer pending=%v for %v, refresh clears at %v (want true, %v, later)",
			tb.wb.pending, tb.wb.rv, clear, tie+2)
	}
	if tb.wbDoneAt != sim.CycleMax || tb.nextArbAt != clear {
		t.Fatalf("after the tie: drain slot %v, next round at %v; want empty and the refresh-clear cycle %v",
			tb.wbDoneAt, tb.nextArbAt, clear)
	}
	tres := tb.Run(0)

	rb := rtl.New(platform.Config{Params: p, Gens: mk(), Checker: &check.Checker{PanicOnProperty: true}})
	rres := rb.Run(0)
	if !tres.Completed || !rres.Completed {
		t.Fatalf("incomplete: tlm %v rtl %v", tres.Completed, rres.Completed)
	}
	if tres.Cycles != rres.Cycles {
		t.Fatalf("cycles: tlm %d rtl %d", tres.Cycles, rres.Cycles)
	}
	if !reflect.DeepEqual(tres.Stats.Masters, rres.Stats.Masters) {
		t.Fatalf("per-master stats diverged:\ntlm %+v\nrtl %+v", tres.Stats.Masters, rres.Stats.Masters)
	}
	if err := memoryDiff(rb.Mem(), tb.Mem()); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshDueBeforeBankAffinity replays drift seed 4520 (2 masters,
// 40 transactions on a platform with the permission filter off and
// refresh and bank affinity on). With the permission filter off no
// Permit probe runs before bank affinity asks the engine which
// candidate's bank is idle or open, so a refresh due on the round's
// cycle was not yet applied when IdleOrOpen read the banks: it ranked
// candidates on rows the refresh had already closed, and the models
// drifted apart (4,727 pin-accurate cycles, 4,707 transaction-level).
// IdleOrOpen applies refreshes due by its cycle first; both models must
// agree cycle for cycle, record for record.
func TestRefreshDueBeforeBankAffinity(t *testing.T) {
	p, _, _ := runCrossModel(4520, 2, 40)
	if p.Filters.Permission || p.DDR.TREFI == 0 || !p.Filters.BankAffinity {
		t.Fatalf("seed 4520 no longer builds the platform under test: permission %v, tREFI %d, bank affinity %v",
			p.Filters.Permission, p.DDR.TREFI, p.Filters.BankAffinity)
	}
	if err := crossModelAgree(4520, 2, 40); err != nil {
		t.Fatal(err)
	}
}
