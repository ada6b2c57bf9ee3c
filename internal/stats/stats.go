// Package stats implements the profiling features the paper attaches to
// the AHB+ TLM (§3.6): bus and master-port profiling — contention,
// utilization, throughput, per-master latency — plus write-buffer and
// DDR statistics, with a text report renderer.
package stats

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/ddr"
	"repro/internal/sim"
)

// histBuckets is the number of power-of-two latency histogram buckets:
// bucket i counts latencies in [2^i, 2^(i+1)).
const histBuckets = 16

// Master accumulates per-master-port measurements.
type Master struct {
	// Name labels the port in reports.
	Name string
	// Txns is the number of completed transactions.
	Txns uint64
	// Beats is the number of completed data beats.
	Beats uint64
	// Bytes is the number of bytes transferred.
	Bytes uint64
	// Reads and Writes split Txns by direction.
	Reads, Writes uint64
	// WaitCycles is the total request-to-grant contention time.
	WaitCycles sim.Cycle
	// LatencySum is the total request-to-first-data latency.
	LatencySum sim.Cycle
	// LatencyMin and LatencyMax bound the observed latencies.
	LatencyMin, LatencyMax sim.Cycle
	// QoSViolations counts transactions that missed the objective.
	QoSViolations uint64
	// Errors counts transactions terminated with an ERROR response
	// (unmapped address).
	Errors uint64
	// Hist is the latency histogram (power-of-two buckets).
	Hist [histBuckets]uint64
}

// RecordTxn folds one completed transaction into the master stats.
func (m *Master) RecordTxn(write bool, beats, bytes int, wait, latency sim.Cycle, violated bool) {
	m.Txns++
	m.Beats += uint64(beats)
	m.Bytes += uint64(bytes)
	if write {
		m.Writes++
	} else {
		m.Reads++
	}
	m.WaitCycles += wait
	m.LatencySum += latency
	if m.Txns == 1 || latency < m.LatencyMin {
		m.LatencyMin = latency
	}
	if latency > m.LatencyMax {
		m.LatencyMax = latency
	}
	if violated {
		m.QoSViolations++
	}
	// Bucket floor(log2(latency)), latencies 0 and 1 in bucket 0.
	m.Hist[min(bits.Len64(uint64(latency)|1)-1, histBuckets-1)]++
}

// MeanLatency returns the average request-to-first-data latency.
func (m *Master) MeanLatency() float64 {
	if m.Txns == 0 {
		return 0
	}
	return float64(m.LatencySum) / float64(m.Txns)
}

// MeanWait returns the average request-to-grant wait.
func (m *Master) MeanWait() float64 {
	if m.Txns == 0 {
		return 0
	}
	return float64(m.WaitCycles) / float64(m.Txns)
}

// Bus aggregates a whole simulation run.
type Bus struct {
	// Cycles is the number of simulated bus cycles.
	Cycles sim.Cycle
	// BusyBeats is the number of cycles the AHB data bus carried a beat.
	BusyBeats uint64
	// Grants is the number of arbitration grants issued.
	Grants uint64
	// ArbRounds is the number of arbitration rounds evaluated.
	ArbRounds uint64
	// WBPosted counts writes absorbed by the write buffer.
	WBPosted uint64
	// WBDrained counts write-buffer drain transactions.
	WBDrained uint64
	// WBFullStalls counts writes that found the buffer full.
	WBFullStalls uint64
	// WBPeak is the highest write-buffer occupancy observed.
	WBPeak int
	// Masters holds the per-port stats (the write buffer pseudo-master
	// is the final entry when present).
	Masters []Master
	// DDR is the memory-engine statistics snapshot.
	DDR ddr.Stats
	// FilterDecisive maps arbitration filter name to the number of
	// rounds it narrowed the candidate set.
	FilterDecisive map[string]uint64
}

// NewBus returns a Bus with per-master slots named m0..m(n-1).
func NewBus(masters int) *Bus {
	b := &Bus{Masters: make([]Master, masters), FilterDecisive: map[string]uint64{}}
	for i := range b.Masters {
		b.Masters[i].Name = fmt.Sprintf("m%d", i)
	}
	return b
}

// Utilization returns the fraction of cycles the data bus was busy.
func (b *Bus) Utilization() float64 {
	if b.Cycles == 0 {
		return 0
	}
	return float64(b.BusyBeats) / float64(b.Cycles)
}

// ThroughputBytesPerKCycle returns bytes moved per thousand cycles.
func (b *Bus) ThroughputBytesPerKCycle() float64 {
	if b.Cycles == 0 {
		return 0
	}
	var bytes uint64
	for _, m := range b.Masters {
		bytes += m.Bytes
	}
	return float64(bytes) * 1000 / float64(b.Cycles)
}

// TotalTxns returns transactions completed across all ports.
func (b *Bus) TotalTxns() uint64 {
	var t uint64
	for _, m := range b.Masters {
		t += m.Txns
	}
	return t
}

// TotalViolations returns QoS violations across all ports.
func (b *Bus) TotalViolations() uint64 {
	var t uint64
	for _, m := range b.Masters {
		t += m.QoSViolations
	}
	return t
}

// Report writes a human-readable profile, mirroring the metrics the
// paper calls out as essential for communication-architecture analysis
// (contention, utilization, throughput).
func (b *Bus) Report(w io.Writer) {
	fmt.Fprintf(w, "simulated cycles      : %d\n", uint64(b.Cycles))
	fmt.Fprintf(w, "bus utilization       : %5.1f%%\n", 100*b.Utilization())
	fmt.Fprintf(w, "throughput            : %8.1f bytes/kcycle\n", b.ThroughputBytesPerKCycle())
	fmt.Fprintf(w, "grants / arb rounds   : %d / %d\n", b.Grants, b.ArbRounds)
	fmt.Fprintf(w, "write buffer          : posted=%d drained=%d fullStalls=%d peak=%d\n",
		b.WBPosted, b.WBDrained, b.WBFullStalls, b.WBPeak)
	fmt.Fprintf(w, "ddr                   : hits=%d misses=%d conflicts=%d (hit rate %4.1f%%) refreshes=%d hintActs=%d\n",
		b.DDR.RowHits, b.DDR.RowMisses, b.DDR.RowConflicts, 100*b.DDR.HitRate(), b.DDR.Refreshes, b.DDR.HintActivates)
	if len(b.FilterDecisive) > 0 {
		names := make([]string, 0, len(b.FilterDecisive))
		for k := range b.FilterDecisive {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "decisive filters      :")
		for _, n := range names {
			fmt.Fprintf(w, " %s=%d", n, b.FilterDecisive[n])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-8s %8s %8s %10s %9s %9s %9s %9s %6s %5s\n",
		"port", "txns", "beats", "bytes", "meanWait", "meanLat", "maxLat", "minLat", "QoSvio", "err")
	for i := range b.Masters {
		m := &b.Masters[i]
		if m.Txns == 0 {
			continue
		}
		fmt.Fprintf(w, "%-8s %8d %8d %10d %9.1f %9.1f %9d %9d %6d %5d\n",
			m.Name, m.Txns, m.Beats, m.Bytes, m.MeanWait(), m.MeanLatency(),
			uint64(m.LatencyMax), uint64(m.LatencyMin), m.QoSViolations, m.Errors)
	}
}

// ReportHistograms renders the per-master latency histograms as text
// bars, the latency-distribution view of the profiling feature set.
func (b *Bus) ReportHistograms(w io.Writer) {
	for i := range b.Masters {
		m := &b.Masters[i]
		if m.Txns == 0 {
			continue
		}
		fmt.Fprintf(w, "%s latency histogram (cycles):\n", m.Name)
		var peak uint64
		for _, c := range m.Hist {
			if c > peak {
				peak = c
			}
		}
		for bkt, c := range m.Hist {
			if c == 0 {
				continue
			}
			lo := uint64(1) << bkt
			if bkt == 0 {
				lo = 0
			}
			bar := int(40 * c / peak)
			fmt.Fprintf(w, "  [%6d,%6d) %8d %s\n", lo, uint64(1)<<(bkt+1), c, strings.Repeat("#", bar))
		}
	}
}
