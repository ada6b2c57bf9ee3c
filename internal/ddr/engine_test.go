package ddr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testEngine() *Engine {
	return NewEngine(DDR266().NoRefresh(), DefaultAddrMap())
}

func TestAddrMapRoundTrip(t *testing.T) {
	m := DefaultAddrMap()
	f := func(bankRaw uint8, rowRaw, colRaw uint32) bool {
		bank := int(bankRaw) % m.Banks()
		row := rowRaw & ((1 << m.RowBits) - 1)
		col := colRaw & ((1 << m.ColBits) - 1)
		b2, r2, c2 := m.Decode(m.Encode(bank, row, col))
		return b2 == bank && r2 == row && c2 == col
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrMapSequentialCrossesBanks(t *testing.T) {
	m := DefaultAddrMap()
	rowBytes := m.RowBytes()
	b0, _, _ := m.Decode(0)
	b1, _, _ := m.Decode(rowBytes) // one row further
	if b0 == b1 {
		t.Fatalf("walking past a row should land in the next bank (got bank %d twice)", b0)
	}
}

func TestTimingValidate(t *testing.T) {
	if err := DDR266().Validate(); err != nil {
		t.Fatalf("DDR266 invalid: %v", err)
	}
	if err := DDR333().Validate(); err != nil {
		t.Fatalf("DDR333 invalid: %v", err)
	}
	bad := DDR266()
	bad.TRC = 1
	if bad.Validate() == nil {
		t.Fatal("tRC < tRAS+tRP must be rejected")
	}
	bad = DDR266()
	bad.TRFC = 0
	if bad.Validate() == nil {
		t.Fatal("refresh without tRFC must be rejected")
	}
	bad = DDR266()
	bad.TRCD = 0
	if bad.Validate() == nil {
		t.Fatal("zero tRCD must be rejected")
	}
}

func TestFirstAccessIsMiss(t *testing.T) {
	e := testEngine()
	res := e.Access(0, 0x1000, false, 4)
	if res.Kind != AccessMiss {
		t.Fatalf("first access kind = %v, want miss", res.Kind)
	}
	// Closed bank: activate at 0, column at tRCD, data at tRCD+tCL.
	want := e.T.TRCD + e.T.TCL
	if res.FirstData != want {
		t.Fatalf("FirstData = %v, want %v", res.FirstData, want)
	}
	if res.LastData != want+3 {
		t.Fatalf("LastData = %v, want %v", res.LastData, want+3)
	}
}

func TestRowHitIsFasterThanMissIsFasterThanConflict(t *testing.T) {
	m := DefaultAddrMap()
	base := m.Encode(1, 10, 0)

	// Hit: open the row, then access it again.
	e1 := testEngine()
	e1.Access(0, base, false, 1)
	hit := e1.Access(100, base+4, false, 1)
	if hit.Kind != AccessHit {
		t.Fatalf("expected hit, got %v", hit.Kind)
	}

	// Miss: fresh bank.
	e2 := testEngine()
	e2.Access(0, base, false, 1)
	miss := e2.Access(100, m.Encode(2, 10, 0), false, 1)
	if miss.Kind != AccessMiss {
		t.Fatalf("expected miss, got %v", miss.Kind)
	}

	// Conflict: same bank, different row.
	e3 := testEngine()
	e3.Access(0, base, false, 1)
	conf := e3.Access(100, m.Encode(1, 11, 0), false, 1)
	if conf.Kind != AccessConflict {
		t.Fatalf("expected conflict, got %v", conf.Kind)
	}

	hl, ml, cl := hit.Latency(100), miss.Latency(100), conf.Latency(100)
	if !(hl < ml && ml < cl) {
		t.Fatalf("latency ordering violated: hit=%v miss=%v conflict=%v", hl, ml, cl)
	}
	// Closed-form expectations.
	if hl != e3.T.TCL {
		t.Fatalf("hit latency = %v, want tCL=%v", hl, e3.T.TCL)
	}
	if ml != e3.T.TRCD+e3.T.TCL {
		t.Fatalf("miss latency = %v, want tRCD+tCL=%v", ml, e3.T.TRCD+e3.T.TCL)
	}
	if cl != e3.T.TRP+e3.T.TRCD+e3.T.TCL {
		t.Fatalf("conflict latency = %v, want tRP+tRCD+tCL=%v", cl, e3.T.TRP+e3.T.TRCD+e3.T.TCL)
	}
}

func TestDataBusNeverOverlaps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := testEngine()
		m := e.Map
		var lastEnd sim.Cycle
		now := sim.Cycle(0)
		for i := 0; i < 100; i++ {
			addr := m.Encode(rng.Intn(m.Banks()), uint32(rng.Intn(64)), uint32(rng.Intn(1<<m.ColBits))) &^ 3
			beats := 1 << rng.Intn(4) // 1,2,4,8
			res := e.Access(now, addr, rng.Intn(2) == 0, beats)
			if i > 0 && res.FirstData <= lastEnd {
				return false // overlap with previous burst
			}
			if res.LastData != res.FirstData+sim.Cycle(beats-1) {
				return false
			}
			lastEnd = res.LastData
			now += sim.Cycle(rng.Intn(10))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessTimeMonotone(t *testing.T) {
	// Data of a later request never precedes data of an earlier one.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(DDR266(), DefaultAddrMap()) // refresh on
		var prev sim.Cycle
		now := sim.Cycle(0)
		for i := 0; i < 200; i++ {
			addr := uint32(rng.Intn(1<<20)) &^ 3
			res := e.Access(now, addr, rng.Intn(2) == 0, 1+rng.Intn(8))
			if res.FirstData < prev {
				return false
			}
			if res.FirstData < now {
				return false // data cannot precede the request
			}
			prev = res.FirstData
			now += sim.Cycle(rng.Intn(30))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTRCEnforcedBetweenActivates(t *testing.T) {
	e := testEngine()
	m := e.Map
	// Miss activates row 1 at cycle 0; conflicting access immediately
	// after must respect tRAS before precharge and tRC before the next
	// activate on the same bank.
	first := e.Access(0, m.Encode(0, 1, 0), false, 1)
	second := e.Access(first.LastData+1, m.Encode(0, 2, 0), false, 1)
	// Activate #2 start = firstData - tCL - tRCD must be >= tRC after
	// activate #1 (which started at 0).
	act2 := second.FirstData - e.T.TCL - e.T.TRCD
	if act2 < e.T.TRC {
		t.Fatalf("second activate at %v violates tRC=%v", act2, e.T.TRC)
	}
}

func TestWriteRecoveryDelaysConflict(t *testing.T) {
	m := DefaultAddrMap()
	tm := DDR266().NoRefresh()

	readEng := NewEngine(tm, m)
	rd := readEng.Access(0, m.Encode(0, 1, 0), false, 4)
	afterRead := readEng.Access(rd.LastData+1, m.Encode(0, 2, 0), false, 1)

	writeEng := NewEngine(tm, m)
	wr := writeEng.Access(0, m.Encode(0, 1, 0), true, 4)
	// Ask for the conflicting row immediately after the write data ends:
	// write recovery must push the precharge later than in the read case.
	afterWrite := writeEng.Access(wr.LastData+1, m.Encode(0, 2, 0), false, 1)

	gapRead := afterRead.FirstData - (rd.LastData + 1)
	gapWrite := afterWrite.FirstData - (wr.LastData + 1)
	if gapWrite <= gapRead {
		t.Fatalf("write recovery should lengthen conflict turnaround: write gap %v, read gap %v", gapWrite, gapRead)
	}
}

func TestHintActivationHidesRowMiss(t *testing.T) {
	m := DefaultAddrMap()
	addr := m.Encode(2, 5, 0)

	cold := testEngine()
	coldRes := cold.Access(100, addr, false, 4)

	hinted := testEngine()
	hinted.Hint(100-hinted.T.TRCD, addr, false) // announce tRCD early
	hintRes := hinted.Access(100, addr, false, 4)

	if hintRes.Kind != AccessHit {
		t.Fatalf("hinted access kind = %v, want hit", hintRes.Kind)
	}
	if hintRes.FirstData >= coldRes.FirstData {
		t.Fatalf("hint did not help: hinted %v vs cold %v", hintRes.FirstData, coldRes.FirstData)
	}
	st := hinted.Stats()
	if st.HintActivates != 1 {
		t.Fatalf("HintActivates = %d, want 1", st.HintActivates)
	}
}

func TestHintNeverHurtsDemandAccess(t *testing.T) {
	// Property: issuing a hint for address X never delays a demand
	// access to X relative to not hinting.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := DefaultAddrMap()
		warm := func(e *Engine) sim.Cycle {
			now := sim.Cycle(0)
			for i := 0; i < 10; i++ {
				addr := uint32(rng.Intn(1<<18)) &^ 3
				r := e.Access(now, addr, rng.Intn(2) == 0, 1+rng.Intn(4))
				now = r.LastData + sim.Cycle(rng.Intn(5))
			}
			return now
		}
		seedA := rng.Int63()
		target := m.Encode(rng.Intn(m.Banks()), uint32(rng.Intn(32)), 0)

		ePlain := NewEngine(DDR266().NoRefresh(), m)
		rng = rand.New(rand.NewSource(seedA))
		tPlain := warm(ePlain)
		plain := ePlain.Access(tPlain+10, target, false, 4)

		eHint := NewEngine(DDR266().NoRefresh(), m)
		rng = rand.New(rand.NewSource(seedA))
		tHint := warm(eHint)
		eHint.Hint(tHint+2, target, false)
		hinted := eHint.Access(tHint+10, target, false, 4)

		return hinted.FirstData <= plain.FirstData
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHintPrechargeOnConflict(t *testing.T) {
	m := DefaultAddrMap()
	e := testEngine()
	first := e.Access(0, m.Encode(0, 1, 0), false, 1)
	// Wait past tRAS so the hint precharge is legal, then hint the
	// conflicting row before demanding it.
	hintAt := sim.MaxCycle(first.LastData+1, e.T.TRAS)
	e.Hint(hintAt, m.Encode(0, 9, 0), false)
	if e.Stats().HintPrecharges != 1 {
		t.Fatalf("expected a hint precharge, stats=%+v", e.Stats())
	}
	res := e.Access(hintAt+e.T.TRP+e.T.TRCD, m.Encode(0, 9, 0), false, 1)
	if res.Kind == AccessConflict {
		t.Fatal("hint precharge should have removed the conflict")
	}
}

func TestRefreshBlocksAndRecovers(t *testing.T) {
	tm := DDR266()
	tm.TREFI = 100
	tm.TRFC = 9
	e := NewEngine(tm, DefaultAddrMap())
	// Before the refresh is due, permits are granted.
	if !e.Permit(10, 0) {
		t.Fatal("Permit should be true before refresh is due")
	}
	// An access right after the refresh becomes due pays the stall.
	res := e.Access(101, 0x40, false, 1)
	if res.RefreshStall == 0 {
		t.Fatalf("expected refresh stall, got %+v", res)
	}
	if e.Stats().Refreshes != 1 {
		t.Fatalf("Refreshes = %d, want 1", e.Stats().Refreshes)
	}
	// Long quiet period: all due refreshes are made up.
	e.Access(1000, 0x40, false, 1)
	if got := e.Stats().Refreshes; got < 9 {
		t.Fatalf("Refreshes = %d, want >= 9 after 1000 cycles at tREFI=100", got)
	}
}

func TestBankStateReporting(t *testing.T) {
	e := testEngine()
	if e.BankState(0, 0) != BankIdle {
		t.Fatal("bank should start idle")
	}
	res := e.Access(0, 0, false, 1)
	if e.BankState(0, res.LastData+1) != BankActive {
		t.Fatalf("bank should be active after access, got %v", e.BankState(0, res.LastData+1))
	}
	if e.BankState(0, 1) != BankActivating {
		t.Fatalf("bank should be activating mid-activation, got %v", e.BankState(0, 1))
	}
	row, open := e.OpenRow(0)
	if !open || row != 0 {
		t.Fatalf("OpenRow = (%d,%v)", row, open)
	}
}

func TestIdleOrOpen(t *testing.T) {
	m := DefaultAddrMap()
	e := testEngine()
	idle, open := e.IdleOrOpen(0, m.Encode(0, 1, 0))
	if !idle || open {
		t.Fatalf("fresh bank: idle=%v open=%v", idle, open)
	}
	res := e.Access(0, m.Encode(0, 1, 0), false, 1)
	idle, open = e.IdleOrOpen(res.LastData+1, m.Encode(0, 1, 4))
	if idle || !open {
		t.Fatalf("after access same row: idle=%v open=%v", idle, open)
	}
	idle, open = e.IdleOrOpen(res.LastData+1, m.Encode(0, 2, 0))
	if idle || open {
		t.Fatalf("after access other row: idle=%v open=%v", idle, open)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := testEngine()
	e.Access(0, 0x0, false, 4)   // miss
	e.Access(20, 0x10, false, 4) // hit (same row)
	e.Access(40, 0x0, true, 4)   // hit write
	st := e.Stats()
	if st.Reads != 2 || st.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d", st.Reads, st.Writes)
	}
	if st.RowHits != 2 || st.RowMisses != 1 {
		t.Fatalf("hits/misses = %d/%d", st.RowHits, st.RowMisses)
	}
	if st.DataBeats != 12 {
		t.Fatalf("DataBeats = %d, want 12", st.DataBeats)
	}
	if hr := st.HitRate(); hr < 0.6 || hr > 0.7 {
		t.Fatalf("HitRate = %f, want 2/3", hr)
	}
	var empty Stats
	if empty.HitRate() != 0 {
		t.Fatal("empty HitRate should be 0")
	}
}

func TestAccessZeroBeatsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	testEngine().Access(0, 0, false, 0)
}

func TestStringers(t *testing.T) {
	for _, s := range []BankState{BankIdle, BankActivating, BankActive, BankPrecharging, BankState(9)} {
		if s.String() == "" {
			t.Error("empty BankState string")
		}
	}
	for _, k := range []AccessKind{AccessHit, AccessMiss, AccessConflict, AccessKind(9)} {
		if k.String() == "" {
			t.Error("empty AccessKind string")
		}
	}
}
