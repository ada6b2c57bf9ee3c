package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/spec"
)

func BenchmarkTLMProfile(b *testing.B) {
	multi, _ := SpeedWorkloads(2000)
	for i := 0; i < b.N; i++ {
		Run(multi, TLM, Options{})
	}
}

// TestRTLRunAllocationCeiling bounds what one pin-accurate run
// allocates: assembling the platform, and nothing per cycle, per
// transaction or per passing assertion. Both ceilings are exact: 199
// for the speed workload and 207 for rand/write-heavy. The speed
// workload's count was 4,482 while check.Assert boxed its arguments on
// the passing path, 227 while a QoS tracker re-counted what the profile
// records, 221 while each random master seeded a heap-held math/rand
// source, 219 while the arbiter built a second pipeline nobody latched
// and the controller FSM kept per-bank counters nobody read, and 213
// while every component kept a register bank of its own.
func TestRTLRunAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// The backing store recycles its pages through sync.Pools, which a
	// collection empties: a GC between the measured runs would make the
	// next run allocate its pages again. Hold the GC off so the count is
	// the run's own whenever the collector happens to run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	multi, _ := SpeedWorkloads(1000)
	randWH, err := spec.ByName("rand/write-heavy")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		w       Workload
		ceiling float64
	}{
		{"speed/multi", multi, 199},
		{"rand/write-heavy", MustFromSpec(randWH), 207},
	} {
		allocs := testing.AllocsPerRun(5, func() { Run(c.w, RTL, Options{}) })
		t.Logf("one RTL run of %s: %v allocations", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("one RTL run of %s allocates %v times, ceiling %v", c.name, allocs, c.ceiling)
		}
	}
}

// TestTLMRunAllocationCeiling is the same bound for the
// transaction-level run: the platform, the port states and the first
// growth steps of the reused buffers (45 for the speed workload; it was
// 76 with an event wheel under the model, 72 while write payloads went
// through a staging buffer, 53 while a QoS tracker re-counted what the
// profile records and 47 while each random master seeded a heap-held
// math/rand source). The model advances by direct call, so nothing is
// allocated per round or per transaction. rand/write-heavy's three
// random masters keep a per-generator allocation from creeping back.
func TestTLMRunAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	multi, _ := SpeedWorkloads(1000)
	randWH, err := spec.ByName("rand/write-heavy")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		w       Workload
		ceiling float64
	}{
		{"speed/multi", multi, 45},
		{"rand/write-heavy", MustFromSpec(randWH), 49},
	} {
		allocs := testing.AllocsPerRun(5, func() { Run(c.w, TLM, Options{}) })
		t.Logf("one TLM run of %s: %v allocations", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("one TLM run of %s allocates %v times, ceiling %v", c.name, allocs, c.ceiling)
		}
	}
}
