package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// fakeTier drives the sweep engine with no simulator and no cluster
// behind it: lanes of configurable width, an instant (or scripted)
// Resolve, and an in-memory manifest slot that records what the stream
// looked like at every checkpoint.
type fakeTier struct {
	conc []int // lane widths; variants are dealt to lanes by Index % len(conc)
	// resolve, when set, replaces the instant successful answer.
	resolve func(ctx context.Context, v sweep.Variant, lane, from int) (SweepLine, bool)

	mu     sync.Mutex
	stored *SweepManifest
	saves  []fakeSave
	// rec, when set, is the stream under test: every save notes how much
	// of it was written and how much of that had been flushed.
	rec *flushRecorder
}

// fakeSave is one SaveManifest call as the tier saw it.
type fakeSave struct {
	done, failed, variants int
	written, flushed       int // NDJSON lines written / flushed at that moment
}

// fakeLine is the fake tier's own wire shape — the row plus the lanes
// that handled it — so the tests also prove the engine emits a tier's
// line as it is.
type fakeLine struct {
	SweepRow
	Lane int `json:"lane"`
	From int `json:"from"`
}

func (t *fakeTier) CheckCycleCap(spec.Spec) error { return nil }

func (t *fakeTier) GridError(row SweepRow) SweepLine {
	return fakeLine{SweepRow: row, Lane: -1, From: -1}
}

func (t *fakeTier) LoadManifest(_ context.Context, id string) (*SweepManifest, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stored == nil || t.stored.ID != id {
		return nil, false
	}
	// Hand out a copy, as a store round trip would.
	raw, _ := json.Marshal(t.stored)
	var m SweepManifest
	if json.Unmarshal(raw, &m) != nil || !m.Accept(id) {
		return nil, false
	}
	return &m, true
}

func (t *fakeTier) SaveManifest(m *SweepManifest) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stored = m
	save := fakeSave{done: m.Done.Count(), failed: m.Failed.Count(), variants: m.Variants}
	if t.rec != nil {
		save.written = bytes.Count(t.rec.Body.Bytes(), []byte("\n"))
		save.flushed = t.rec.flushedLines
	}
	t.saves = append(t.saves, save)
}

func (t *fakeTier) Begin(r *http.Request) (SweepPlanner, error) {
	if r.Header.Get("X-Bad-Identity") != "" {
		return nil, fmt.Errorf("bad identity")
	}
	return func(m SweepModel, variants []sweep.Variant) SweepPlan {
		lanes := make([]SweepLane, len(t.conc))
		for i, c := range t.conc {
			lanes[i].Conc = c
		}
		for _, v := range variants {
			lane := v.Index % len(lanes)
			lanes[lane].Queue = append(lanes[lane].Queue, v)
		}
		return SweepPlan{Lanes: lanes, Resolve: eachVariant(func(ctx context.Context, v sweep.Variant, lane, from int) (SweepLine, bool) {
			if t.resolve != nil {
				return t.resolve(ctx, v, lane, from)
			}
			return instantLine(v, lane, from), true
		})}
	}, nil
}

// eachVariant is a Resolve that settles a run one variant at a time.
func eachVariant(one func(ctx context.Context, v sweep.Variant, lane, from int) (SweepLine, bool)) func(context.Context, []sweep.Variant, int, int, func(SweepLine)) bool {
	return func(ctx context.Context, run []sweep.Variant, lane, from int, emit func(SweepLine)) bool {
		for _, v := range run {
			line, ok := one(ctx, v, lane, from)
			if !ok {
				return false
			}
			emit(line)
		}
		return true
	}
}

// instantLine answers v successfully without computing anything.
func instantLine(v sweep.Variant, lane, from int) fakeLine {
	row := NewSweepRow(v)
	row.Settle("miss", http.StatusOK, []byte(`{"cycles":1}`))
	return fakeLine{SweepRow: row, Lane: lane, From: from}
}

// flushRecorder is a response recorder that notes how many complete
// lines each Flush pushed out.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushedLines int
}

func (f *flushRecorder) Flush() { f.flushedLines = bytes.Count(f.Body.Bytes(), []byte("\n")) }

func newFakeEngine(tier *fakeTier) *SweepEngine {
	reg := obs.NewRegistry()
	_, scenarios := ScenarioLibrary()
	return NewSweepEngine(tier, scenarios, 0, reg.Counter("rows", "rows"), reg.Counter("resumes", "resumes"))
}

// engineStream decodes a recorded NDJSON stream into the fake tier's
// lines and the terminal summary (done=false: the stream had none).
func engineStream(t *testing.T, body *bytes.Buffer) (lines []fakeLine, summary SweepSummary, done bool) {
	t.Helper()
	summary, done, err := DecodeSweepStream(bytes.NewReader(body.Bytes()), func(raw []byte) error {
		var l fakeLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return err
		}
		lines = append(lines, l)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines, summary, done
}

// mixedGrid has everything a walk can meet: duplicate axis values that
// dedup drops, and a transaction count that is legal alone but walks
// the first master into the second one's address range at every grid
// point it touches.
func mixedGrid(salt int) SweepRequest {
	base := testSpec(salt)
	return SweepRequest{Base: &base, Name: "engine/mixed", Model: "tl", Axes: []SweepAxis{
		{Param: sweep.ParamWriteBufferDepth, Values: []any{0, 2, 2, 4, 8}},
		{Param: sweep.ParamCount, Values: []any{20, 20000, 30}},
	}}
}

// cleanGrid is eight variants that all build.
func cleanGrid(salt int) SweepRequest {
	base := testSpec(salt)
	return SweepRequest{Base: &base, Name: "engine/clean", Model: "tl", Axes: []SweepAxis{
		{Param: sweep.ParamWriteBufferDepth, Values: []any{0, 2, 4, 8}},
		{Param: sweep.ParamBIEnabled, Values: []any{true, false}},
	}}
}

// walkTruth walks req's grid directly: the indices that survive dedup
// and the indices whose spec fails to build.
func walkTruth(t *testing.T, req SweepRequest) (good, bad []int) {
	t.Helper()
	grid, _, err := ResolveSweepGrid(req, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Walk(func(v sweep.Variant, verr error) error {
		if verr != nil {
			bad = append(bad, v.Index)
		} else {
			good = append(good, v.Index)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(good) == 0 || len(bad) == 0 {
		t.Fatalf("degenerate truth: %d good, %d bad", len(good), len(bad))
	}
	return good, bad
}

func postSweep(ctx context.Context, engine *SweepEngine, w http.ResponseWriter, req SweepRequest) {
	buf, _ := json.Marshal(req)
	engine.HandleSweep(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(buf)).WithContext(ctx))
}

func TestEngineEmitsEveryDistinctVariantOnceAndFailedPointsAsErrorRows(t *testing.T) {
	tier := &fakeTier{conc: []int{2, 1, 3}}
	engine := newFakeEngine(tier)
	req := mixedGrid(70)
	good, bad := walkTruth(t, req)

	rec := httptest.NewRecorder()
	postSweep(context.Background(), engine, rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	lines, summary, done := engineStream(t, rec.Body)
	if !done || summary.Rows != len(good)+len(bad) || summary.Errors != len(bad) {
		t.Fatalf("summary %+v done=%v, want %d rows / %d errors", summary, done, len(good)+len(bad), len(bad))
	}
	var gotGood, gotBad []int
	for _, l := range lines {
		if l.Error != "" {
			gotBad = append(gotBad, l.Index)
			if l.Lane != -1 || l.Result != nil {
				t.Fatalf("grid-error row %d did not come through GridError: %+v", l.Index, l)
			}
			continue
		}
		gotGood = append(gotGood, l.Index)
		if l.From != l.Index%3 {
			t.Fatalf("row %d taken from lane %d's queue, the tier queued it on lane %d", l.Index, l.From, l.Index%3)
		}
	}
	sort.Ints(gotGood)
	sort.Ints(gotBad)
	if fmt.Sprint(gotGood) != fmt.Sprint(good) || fmt.Sprint(gotBad) != fmt.Sprint(bad) {
		t.Fatalf("rows %v / error rows %v, want exactly %v / %v", gotGood, gotBad, good, bad)
	}
	// The final checkpoint records the walk: every survivor done, every
	// failed point failed, the distinct count known.
	last := tier.saves[len(tier.saves)-1]
	if last.done != len(good) || last.failed != len(bad) || last.variants != len(good) {
		t.Fatalf("final checkpoint %+v, want %d done / %d failed / %d variants", last, len(good), len(bad), len(good))
	}
}

func TestEngineResumeSkipsAtOrBelowAfter(t *testing.T) {
	tier := &fakeTier{conc: []int{2}}
	engine := newFakeEngine(tier)
	req := mixedGrid(71)
	good, bad := walkTruth(t, req)
	first := httptest.NewRecorder()
	postSweep(context.Background(), engine, first, req)
	id := first.Header().Get(SweepIDHeader)

	const after = 6
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/sweep/"+id+"/resume?after=6", nil)
	r.SetPathValue("id", id)
	engine.HandleResume(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("resume status %d: %s", rec.Code, rec.Body)
	}
	lines, summary, done := engineStream(t, rec.Body)
	want := 0
	for _, idx := range append(append([]int(nil), good...), bad...) {
		if idx > after {
			want++
		}
	}
	if !done || len(lines) != want || summary.Rows != want {
		t.Fatalf("resume carried %d rows (summary %+v done=%v), want %d", len(lines), summary, done, want)
	}
	for _, l := range lines {
		if l.Index <= after {
			t.Fatalf("resume replayed index %d <= after=%d", l.Index, after)
		}
	}
	// A resume that reaches the end still knows the full walk's count.
	if last := tier.saves[len(tier.saves)-1]; last.variants != len(good) || last.done != len(good) {
		t.Fatalf("resume's final checkpoint %+v, want %d variants all done", last, len(good))
	}
}

func TestEngineCancelMeansNoTerminalRowButAFinalCheckpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tier := &fakeTier{conc: []int{1}}
	// The first variant answers; everything after it hangs until the
	// client is gone — and the client goes once that first row is out.
	tier.resolve = func(rctx context.Context, v sweep.Variant, lane, from int) (SweepLine, bool) {
		if v.Index == 0 {
			return instantLine(v, lane, from), true
		}
		cancel()
		<-rctx.Done()
		return nil, false
	}
	engine := newFakeEngine(tier)
	rec := httptest.NewRecorder()
	postSweep(ctx, engine, rec, cleanGrid(72))
	lines, _, done := engineStream(t, rec.Body)
	if done {
		t.Fatalf("a cancelled stream claimed completion:\n%s", rec.Body)
	}
	if len(lines) != 1 || lines[0].Index != 0 {
		t.Fatalf("lines before the cancel: %+v, want exactly row 0", lines)
	}
	if len(tier.saves) != 1 {
		t.Fatalf("%d checkpoints, want exactly the final one", len(tier.saves))
	}
	if s := tier.saves[0]; s.done != 1 || s.variants != 0 {
		t.Fatalf("final checkpoint %+v, want the one emitted row and no distinct count (the walk never finished)", s)
	}
}

func TestEngineCheckpointsEvery256RowsFlushFirst(t *testing.T) {
	base := testSpec(73)
	req := SweepRequest{Base: &base, Name: "engine/big", Model: "tl", Axes: []SweepAxis{
		{Param: sweep.ParamCount, Values: intsAny(600, 1)},
	}}
	tier := &fakeTier{conc: []int{4, 4}}
	tier.rec = &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	engine := newFakeEngine(tier)
	postSweep(context.Background(), engine, tier.rec, req)
	if _, summary, done := engineStream(t, tier.rec.Body); !done || summary.Rows != 600 {
		t.Fatalf("summary %+v done=%v, want 600 rows", summary, done)
	}
	// 600 rows: checkpoints at 256 and 512, then the final one.
	if len(tier.saves) != 3 {
		t.Fatalf("%d checkpoints for 600 rows, want 3: %+v", len(tier.saves), tier.saves)
	}
	for i, want := range []int{256, 512, 600} {
		s := tier.saves[i]
		if s.done != want {
			t.Fatalf("checkpoint %d covers %d rows, want %d", i, s.done, want)
		}
		if s.flushed != s.written {
			t.Fatalf("checkpoint %d ran with %d of %d written lines unflushed — rows must leave before the store wait",
				i, s.written-s.flushed, s.written)
		}
	}
	if tier.saves[2].written != 601 {
		t.Fatalf("final checkpoint saw %d lines, want 600 rows and the summary", tier.saves[2].written)
	}
}

func intsAny(n, from int) []any {
	vals := make([]any, n)
	for i := range vals {
		vals[i] = from + i
	}
	return vals
}

func TestEngineIdentityRejectedBeforeTheGridCostsAnything(t *testing.T) {
	tier := &fakeTier{conc: []int{1}}
	engine := newFakeEngine(tier)
	buf, _ := json.Marshal(mixedGrid(74))
	r := httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(buf))
	r.Header.Set("X-Bad-Identity", "1")
	rec := httptest.NewRecorder()
	engine.HandleSweep(rec, r)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad identity") {
		t.Fatalf("status %d body %s, want the tier's identity 400", rec.Code, rec.Body)
	}
	if len(tier.saves) != 0 {
		t.Fatalf("a rejected request checkpointed %d times", len(tier.saves))
	}
}

// variantsN fabricates n distinct variants; runChunk never looks inside.
func variantsN(n int) []sweep.Variant {
	vs := make([]sweep.Variant, n)
	for i := range vs {
		vs[i] = sweep.Variant{Index: i, Hash: fmt.Sprintf("%064x", i)}
	}
	return vs
}

// indices lists a run's variant indices.
func indices(run []sweep.Variant) []int {
	out := make([]int, len(run))
	for i, v := range run {
		out[i] = v.Index
	}
	return out
}

func TestLaneQueuesStealOnlyPastTheVictimsConcurrency(t *testing.T) {
	vs := variantsN(9)
	q := laneQueues{lanes: []SweepLane{
		{Conc: 2, Queue: vs[0:5]}, // 5 deep, width 2: three to spare
		{Conc: 1},                 // idle: the thief
		{Conc: 3, Queue: vs[5:8]}, // 3 deep, width 3: nothing to spare
	}}
	// The thief takes lane 0's tail while lane 0 holds more than its
	// width — never lane 2's backlog, which its owner can hold. A queue
	// this shallow goes out in runs of one.
	for _, want := range []int{4, 3, 2} {
		run, from, ok := q.next(1)
		if !ok || from != 0 || len(run) != 1 || run[0].Index != want {
			t.Fatalf("steal = %v from lane %d (ok=%v), want variant %d off lane 0's tail", indices(run), from, ok, want)
		}
	}
	if run, from, ok := q.next(1); ok {
		t.Fatalf("stole %v from lane %d with every backlog within its lane's width", indices(run), from)
	}
	// Owners drain their own queues from the head, untouched by the
	// thief: the two ends never met.
	for _, want := range []int{0, 1} {
		if run, from, ok := q.next(0); !ok || from != 0 || len(run) != 1 || run[0].Index != want {
			t.Fatalf("lane 0 got %v from lane %d (ok=%v), want its own head %d", indices(run), from, ok, want)
		}
	}
	// The deepest eligible victim wins.
	q = laneQueues{lanes: []SweepLane{{Conc: 1, Queue: vs[0:3]}, {Conc: 1}, {Conc: 1, Queue: vs[3:9]}}}
	if run, from, ok := q.next(1); !ok || from != 2 || run[len(run)-1].Index != 8 {
		t.Fatalf("steal = %v from lane %d (ok=%v), want the deeper lane 2's tail", indices(run), from, ok)
	}

	// Runs: a deep queue is handed out in slices whose length follows
	// its depth — depth/(2*Conc), clamped to [1, maxSweepRun] — from the
	// head to its owner and from the tail to a thief. Alternating the two
	// until the queue is drained must hand every variant out exactly
	// once, in head order to the owner, and never leave the victim of a
	// theft with less than its width.
	const depth, conc = 1000, 2
	q = laneQueues{lanes: []SweepLane{{Conc: conc, Queue: variantsN(depth)}, {Conc: 1}}}
	seen := make([]bool, depth)
	head, longest, last := 0, 0, 0
	for turn := 0; ; turn++ {
		left := len(q.lanes[0].Queue)
		if left == 0 {
			break
		}
		want := min(max(left/(2*conc), 1), maxSweepRun)
		self := turn % 2
		run, from, ok := q.next(self)
		if self == 1 && left <= conc {
			if ok {
				t.Fatalf("thief took %v with only %d queued on a lane of width %d", indices(run), left, conc)
			}
			continue
		}
		if !ok || from != 0 || len(run) != want {
			t.Fatalf("turn %d: run of %d from lane %d (ok=%v) with %d queued, want %d from lane 0", turn, len(run), from, ok, left, want)
		}
		if self == 0 && run[0].Index != head {
			t.Fatalf("owner's run starts at %d, want its queue's head %d", run[0].Index, head)
		}
		if self == 1 && len(q.lanes[0].Queue) < conc {
			t.Fatalf("theft left the victim %d, less than its width %d", len(q.lanes[0].Queue), conc)
		}
		for i, v := range run {
			if seen[v.Index] {
				t.Fatalf("variant %d handed out twice: head-run and tail-run overlap", v.Index)
			}
			seen[v.Index] = true
			if i > 0 && v.Index != run[i-1].Index+1 {
				t.Fatalf("run %v is not a contiguous slice of the queue", indices(run))
			}
		}
		if self == 0 {
			head = run[len(run)-1].Index + 1
		}
		longest, last = max(longest, len(run)), len(run)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("variant %d was never handed out", i)
		}
	}
	if longest != maxSweepRun || last != 1 {
		t.Fatalf("runs peaked at %d and ended at %d, want the clamp %d shrinking to 1 as the queue drains", longest, last, maxSweepRun)
	}
}

func TestRunChunkResolvesEveryVariantOnceAcrossOwnersAndThieves(t *testing.T) {
	// Six variants on lane 0 (width 2) beside an idle lane 1. Lane 0's
	// own workers park until lane 1 has stolen at least once — which,
	// with the owners parked on a 6-deep queue, it must.
	gate := make(chan struct{})
	stole := make(chan struct{}, 6)
	plan := SweepPlan{
		Lanes: []SweepLane{{Conc: 2, Queue: variantsN(6)}, {Conc: 1}},
		Resolve: eachVariant(func(ctx context.Context, v sweep.Variant, lane, from int) (SweepLine, bool) {
			if lane == from {
				<-gate
			} else {
				stole <- struct{}{}
			}
			return instantLine(v, lane, from), true
		}),
	}
	var emitted []fakeLine
	finished := make(chan bool, 1)
	go func() {
		finished <- runChunk(context.Background(), plan, func(l SweepLine) { emitted = append(emitted, l.(fakeLine)) }, func() {})
	}()
	<-stole
	close(gate)
	if !<-finished {
		t.Fatal("runChunk reported an aborted chunk")
	}
	seen := map[int]bool{}
	stolen := 0
	for _, l := range emitted {
		if seen[l.Index] {
			t.Fatalf("variant %d emitted twice", l.Index)
		}
		seen[l.Index] = true
		if l.From != 0 {
			t.Fatalf("variant %d taken from lane %d, it was queued on lane 0", l.Index, l.From)
		}
		if l.Lane != l.From {
			stolen++
		}
	}
	if len(seen) != 6 || stolen == 0 {
		t.Fatalf("%d of 6 variants emitted, %d stolen; want all six and at least one steal", len(seen), stolen)
	}

	// A one-lane plan never steals, however long its runs: 400 variants
	// on a lane of width 3 start out in runs of the clamp.
	var runs atomic.Int64
	one := eachVariant(func(ctx context.Context, v sweep.Variant, lane, from int) (SweepLine, bool) {
		return instantLine(v, lane, from), true
	})
	plan = SweepPlan{
		Lanes: []SweepLane{{Conc: 3, Queue: variantsN(400)}},
		Resolve: func(ctx context.Context, run []sweep.Variant, lane, from int, emit func(SweepLine)) bool {
			runs.Add(1)
			return one(ctx, run, lane, from, emit)
		},
	}
	once := make([]bool, 400)
	runChunk(context.Background(), plan, func(l SweepLine) {
		fl := l.(fakeLine)
		if fl.Lane != 0 || fl.From != 0 || once[fl.Index] {
			t.Fatalf("one-lane plan resolved %+v off its lane or twice", fl)
		}
		once[fl.Index] = true
	}, func() {})
	for i, ok := range once {
		if !ok {
			t.Fatalf("one-lane plan never emitted variant %d", i)
		}
	}
	if n := runs.Load(); n >= 400/4 {
		t.Fatalf("400 variants went out in %d runs: the deep part of the queue was not taken in runs", n)
	}
}
