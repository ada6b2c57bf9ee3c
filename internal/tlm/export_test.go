package tlm

import (
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
