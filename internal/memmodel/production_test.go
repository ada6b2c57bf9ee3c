package memmodel_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/spec"
)

// TestCoreRunOnTLMBacksNoFrame pins the production path: core.Run
// releases the memory without reading it, so the transaction-level
// model's logged pattern writes are dropped and no page frame is ever
// materialised. The workloads are the scenario library and the
// benchmark's speed pair; none of them fills the log, whose overflow
// would store bytes in place. The pin-accurate model stores its wire
// bytes eagerly, which shows the counter counts.
func TestCoreRunOnTLMBacksNoFrame(t *testing.T) {
	var ws []core.Workload
	for _, s := range spec.Scenarios() {
		ws = append(ws, core.MustFromSpec(s))
	}
	multi, single := core.SpeedWorkloads(1000)
	ws = append(ws, multi, single)

	frames := memmodel.CountNewFrames(t)
	for _, w := range ws {
		if !core.Run(w, core.TLM, core.Options{}).Completed {
			t.Fatalf("%s: TLM run did not drain", w.Name)
		}
	}
	if *frames != 0 {
		t.Fatalf("TLM runs through core.Run materialised %d page frames", *frames)
	}
	for _, w := range ws {
		core.Run(w, core.RTL, core.Options{})
	}
	if *frames == 0 {
		t.Fatal("RTL runs materialised no page frame: the counter is blind")
	}
}
