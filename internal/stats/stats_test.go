package stats

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func simCycle(v uint64) sim.Cycle { return sim.Cycle(v) }

func TestMasterRecordTxn(t *testing.T) {
	var m Master
	m.RecordTxn(false, 4, 16, 2, 10, false)
	m.RecordTxn(true, 8, 32, 4, 30, true)
	if m.Txns != 2 || m.Beats != 12 || m.Bytes != 48 {
		t.Fatalf("counts %+v", m)
	}
	if m.Reads != 1 || m.Writes != 1 {
		t.Fatalf("direction split %d/%d", m.Reads, m.Writes)
	}
	if m.LatencyMin != 10 || m.LatencyMax != 30 {
		t.Fatalf("lat bounds %d/%d", m.LatencyMin, m.LatencyMax)
	}
	if m.MeanLatency() != 20 {
		t.Fatalf("mean latency %f", m.MeanLatency())
	}
	if m.MeanWait() != 3 {
		t.Fatalf("mean wait %f", m.MeanWait())
	}
	if m.QoSViolations != 1 {
		t.Fatalf("violations %d", m.QoSViolations)
	}
}

func TestMasterHistogramBuckets(t *testing.T) {
	var m Master
	m.RecordTxn(false, 1, 4, 0, 1, false)    // bucket 0: [1,2)
	m.RecordTxn(false, 1, 4, 0, 5, false)    // bucket 2: [4,8)
	m.RecordTxn(false, 1, 4, 0, 1000, false) // bucket 9: [512,1024)
	if m.Hist[0] != 1 || m.Hist[2] != 1 || m.Hist[9] != 1 {
		t.Fatalf("histogram %v", m.Hist)
	}
	// Enormous latency lands in the last bucket, not out of range.
	m.RecordTxn(false, 1, 4, 0, 1<<40, false)
	if m.Hist[histBuckets-1] != 1 {
		t.Fatalf("overflow bucket %v", m.Hist)
	}
}

func TestMasterZeroTxnsMeans(t *testing.T) {
	var m Master
	if m.MeanLatency() != 0 || m.MeanWait() != 0 {
		t.Fatal("zero-txn means should be 0")
	}
}

func TestBusDerivedMetrics(t *testing.T) {
	b := NewBus(2)
	b.Cycles = 1000
	b.BusyBeats = 250
	b.Masters[0].RecordTxn(false, 4, 16, 0, 10, false)
	b.Masters[1].RecordTxn(true, 4, 16, 0, 12, true)
	if got := b.Utilization(); got != 0.25 {
		t.Fatalf("utilization %f", got)
	}
	if got := b.ThroughputBytesPerKCycle(); got != 32 {
		t.Fatalf("throughput %f", got)
	}
	if b.TotalTxns() != 2 {
		t.Fatalf("total txns %d", b.TotalTxns())
	}
	if b.TotalViolations() != 1 {
		t.Fatalf("total violations %d", b.TotalViolations())
	}
}

func TestBusZeroCycles(t *testing.T) {
	b := NewBus(1)
	if b.Utilization() != 0 || b.ThroughputBytesPerKCycle() != 0 {
		t.Fatal("zero-cycle metrics should be 0")
	}
}

func TestReportContainsKeyMetrics(t *testing.T) {
	b := NewBus(2)
	b.Cycles = 500
	b.BusyBeats = 100
	b.Grants = 25
	b.ArbRounds = 30
	b.FilterDecisive["realtime"] = 7
	b.Masters[0].Name = "cpu"
	b.Masters[0].RecordTxn(false, 4, 16, 3, 11, false)
	var sb strings.Builder
	b.Report(&sb)
	out := sb.String()
	for _, want := range []string{"utilization", "throughput", "cpu", "realtime=7", "500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Idle master rows are suppressed.
	if strings.Contains(out, "m1") {
		t.Fatalf("idle master should be suppressed:\n%s", out)
	}
}

func TestReportErrorsColumn(t *testing.T) {
	b := NewBus(1)
	b.Cycles = 100
	b.Masters[0].RecordTxn(false, 1, 0, 0, 5, false)
	b.Masters[0].Errors = 3
	var sb strings.Builder
	b.Report(&sb)
	if !strings.Contains(sb.String(), "err") || !strings.Contains(sb.String(), " 3") {
		t.Fatalf("errors column missing:\n%s", sb.String())
	}
}

func TestReportHistograms(t *testing.T) {
	b := NewBus(2)
	b.Cycles = 100
	for _, lat := range []uint64{3, 5, 9, 40, 41, 42} {
		b.Masters[0].RecordTxn(false, 1, 4, 0, simCycle(lat), false)
	}
	var sb strings.Builder
	b.ReportHistograms(&sb)
	out := sb.String()
	if !strings.Contains(out, "m0 latency histogram") {
		t.Fatalf("histogram header missing:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("no bars rendered:\n%s", out)
	}
	// Idle master must not render.
	if strings.Contains(out, "m1 latency") {
		t.Fatalf("idle master rendered:\n%s", out)
	}
}

// TestMasterHistogramMatchesHalving holds the bucket choice to the
// plain definition: halve until one is left, capped at the last bucket.
func TestMasterHistogramMatchesHalving(t *testing.T) {
	lats := []sim.Cycle{0, ^sim.Cycle(0), 1 << 63}
	for l := sim.Cycle(0); l < 1<<17; l++ {
		lats = append(lats, l)
	}
	for _, l := range lats {
		want := 0
		for x := l; x > 1 && want < histBuckets-1; x >>= 1 {
			want++
		}
		var m Master
		m.RecordTxn(false, 1, 4, 0, l, false)
		if m.Hist[want] != 1 {
			t.Fatalf("latency %d: histogram %v, want bucket %d", l, m.Hist, want)
		}
	}
}
