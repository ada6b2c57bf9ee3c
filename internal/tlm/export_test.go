package tlm

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/platform"
	"repro/internal/trace"
)

// EachCrossModelRun runs every seed of the fixed cross-model corpus
// through both models, at the shape FuzzCrossModel replays it (1-4
// masters, 40 transactions), and hands each model's outcome to emit:
// the pin-accurate run first, then the transaction-level one. It
// returns the number of seeds run.
func EachCrossModelRun(emit func(model string, res platform.Result, mem *memmodel.Memory, recs []trace.Record)) int {
	seeds := crossModelSeeds()
	for i, seed := range seeds {
		_, r, t := runCrossModel(seed, i%4+1, 40)
		emit("rtl", r.res, r.mem, r.rec.Records())
		emit("tl", t.res, t.mem, t.rec.Records())
	}
	return len(seeds)
}

// Outcome is one model's run on a cross-model input: the result, the
// memory image and the transaction stream.
type Outcome struct {
	Res  platform.Result
	Mem  *memmodel.Memory
	Recs []trace.Record
}

// EachDriftRun runs every drift seed through both models and hands the
// two outcomes to emit with the input's label. A seed outside the
// drift class panics, so the list cannot quietly stop covering it.
func EachDriftRun(emit func(label string, rtl, tl Outcome)) {
	for _, d := range driftSeeds {
		p, r, t := runCrossModel(d.seed, d.masters, d.txns)
		if p.Filters.Permission || p.DDR.TREFI == 0 {
			panic(fmt.Sprintf("drift seed %d: permission filter on or refresh off", d.seed))
		}
		emit(fmt.Sprintf("seed=%d masters=%d txns=%d", d.seed, d.masters, d.txns),
			Outcome{r.res, r.mem, r.rec.Records()}, Outcome{t.res, t.mem, t.rec.Records()})
	}
}
