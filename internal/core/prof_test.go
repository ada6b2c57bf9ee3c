package core

import "testing"

func BenchmarkTLMProfile(b *testing.B) {
	multi, _ := SpeedWorkloads(2000)
	for i := 0; i < b.N; i++ {
		Run(multi, TLM, Options{})
	}
}

// TestRTLRunAllocationCeiling bounds what one pin-accurate run of the
// multi-master speed workload allocates: assembling the platform, and
// nothing per cycle, per transaction or per passing assertion (221; it
// was 4,482 while check.Assert boxed its arguments on the passing
// path). The event wheel's own gate is
// sim.TestSchedulerSteadyStateAllocatesNothing.
func TestRTLRunAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	multi, _ := SpeedWorkloads(1000)
	const ceiling = 400
	allocs := testing.AllocsPerRun(5, func() { Run(multi, RTL, Options{}) })
	t.Logf("one RTL run: %v allocations", allocs)
	if allocs > ceiling {
		t.Fatalf("one RTL run allocates %v times, ceiling %d", allocs, ceiling)
	}
}

// TestTLMRunAllocationCeiling is the same bound for the
// transaction-level run: the platform, the port states and the first
// growth steps of the reused buffers (47; it was 76 with an event wheel
// under the model, 72 while write payloads went through a staging
// buffer and 53 while a QoS tracker re-counted what the profile
// records). The model advances by direct call, so nothing is allocated
// per round or per transaction.
func TestTLMRunAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	multi, _ := SpeedWorkloads(1000)
	const ceiling = 50
	allocs := testing.AllocsPerRun(5, func() { Run(multi, TLM, Options{}) })
	t.Logf("one TLM run: %v allocations", allocs)
	if allocs > ceiling {
		t.Fatalf("one TLM run allocates %v times, ceiling %d", allocs, ceiling)
	}
}
