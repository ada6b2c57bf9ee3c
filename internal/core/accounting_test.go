package core

import (
	"testing"

	"repro/internal/amba"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// accountingWorkloads is every library scenario plus two that reach
// the accounting corners the library does not: ERROR responses from
// an unmapped address, and a real-time master whose objective is too
// tight to meet under contention.
func accountingWorkloads() []Workload {
	ws := compileAll(spec.Scenarios())

	unmapped := config.Default(2)
	hole := uint32(unmapped.AddrMap.Capacity()) + 0x1000
	ws = append(ws, Workload{
		Name:   "extra/unmapped",
		Params: unmapped,
		Gens: func() []traffic.Generator {
			return []traffic.Generator{
				&traffic.Script{Reqs: []traffic.Req{
					{At: 0, Addr: 0x100, Beats: 4, Burst: amba.BurstIncr4},
					{At: 0, Addr: hole, Beats: 4, Burst: amba.BurstIncr4},
					{At: 0, Addr: hole + 0x40, Beats: 8, Burst: amba.BurstIncr8, Write: true},
					{At: 0, Addr: 0x200, Beats: 8, Burst: amba.BurstIncr8, Write: true},
					{At: 0, Addr: hole, Beats: 1, Burst: amba.BurstSingle},
				}},
				&traffic.Sequential{Base: 0x80000, Beats: 4, Count: 30, WriteEvery: 2},
			}
		},
	})

	tight := config.Default(3)
	tight.Masters[2].RealTime = true
	tight.Masters[2].QoSObjective = 8
	ws = append(ws, Workload{
		Name:   "extra/missed-objective",
		Params: tight,
		Gens: func() []traffic.Generator {
			return []traffic.Generator{
				&traffic.Sequential{Base: 0x00000, Beats: 16, Count: 60},
				&traffic.Sequential{Base: 0x80000, Beats: 16, Count: 60, WriteEvery: 1},
				&traffic.Stream{Base: 0x100000, Beats: 4, Period: 40, Count: 40},
			}
		},
	})
	return ws
}

// TestProfileIsTheTraceAccounted: the per-master profile of a run is
// exactly its transaction trace, folded once. Each master's counters
// are recomputed here from the recorded timelines alone, on both
// models, and must equal Stats.Masters field for field.
func TestProfileIsTheTraceAccounted(t *testing.T) {
	var violations, errors uint64
	for _, w := range accountingWorkloads() {
		objective := make([]sim.Cycle, len(w.Params.Masters)+1) // + write buffer: none
		for i, m := range w.Params.Masters {
			objective[i] = m.Reg().Objective
		}
		for _, model := range []Model{TLM, RTL} {
			tr := trace.New(0)
			res := Run(w, model, Options{Tracer: tr})
			if !res.Completed || res.Violations != 0 {
				t.Fatalf("%s on %v: completed=%v violations=%d", w.Name, model, res.Completed, res.Violations)
			}
			got := res.Stats.Masters
			want := make([]stats.Master, len(got))
			var busy uint64
			for _, r := range tr.Records() {
				m := &want[r.Master]
				beats, bytes := r.Beats, r.Beats*w.Params.BusBytes
				if r.Kind == "error" {
					beats, bytes = 1, 0
					m.Errors++
				}
				lat := r.FirstData - r.Req
				m.Txns++
				m.Beats += uint64(beats)
				m.Bytes += uint64(bytes)
				if r.Write {
					m.Writes++
				} else {
					m.Reads++
				}
				m.WaitCycles += r.Grant - r.Req
				m.LatencySum += lat
				if m.Txns == 1 || lat < m.LatencyMin {
					m.LatencyMin = lat
				}
				m.LatencyMax = max(m.LatencyMax, lat)
				if objective[r.Master] != 0 && lat > objective[r.Master] {
					m.QoSViolations++
				}
				busy += uint64(beats)
			}
			for i := range got {
				g, e := got[i], want[i]
				g.Name, g.Hist = "", [len(g.Hist)]uint64{}
				if g != e {
					t.Errorf("%s on %v, master %d:\nprofile %+v\ntrace   %+v", w.Name, model, i, g, e)
				}
				violations += g.QoSViolations
				errors += g.Errors
			}
			if res.Stats.BusyBeats != busy {
				t.Errorf("%s on %v: BusyBeats %d, trace %d", w.Name, model, res.Stats.BusyBeats, busy)
			}
		}
	}
	if violations == 0 || errors == 0 {
		t.Fatalf("no run exercised the corners: %d QoS violations, %d errors", violations, errors)
	}
	t.Logf("%d QoS violations and %d errors accounted", violations, errors)
}
