package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/config"
)

// Metamorphic relations over the Table 1 library, run through Run on
// both models. Neither side of a relation is the other model, so these
// catch faults the two models share (the arbiter pipeline above all),
// which the cross-model comparison cannot see.

// resultBytes is the deterministic part of a run as /run serialises it:
// cycles, completion, violations and the stats block.
func resultBytes(t *testing.T, r RunResult) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Cycles     uint64
		Completed  bool
		Violations uint64
		Stats      any
	}{uint64(r.Cycles), r.Completed, r.Violations, r.Stats})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// withParams returns w with its parameters edited by edit on a copy
// that shares no slice with w.
func withParams(w Workload, edit func(p *config.Params)) Workload {
	w.Params.Masters = slices.Clone(w.Params.Masters)
	edit(&w.Params)
	return w
}

// sameResult runs a and b on both models and requires identical
// result bytes.
func sameResult(t *testing.T, a, b Workload) {
	t.Helper()
	for _, m := range []Model{TLM, RTL} {
		ra, rb := Run(a, m, Options{}), Run(b, m, Options{})
		if !ra.Completed || ra.Violations != 0 {
			t.Fatalf("%s/%s: baseline run completed=%v violations=%d", a.Name, m, ra.Completed, ra.Violations)
		}
		if x, y := resultBytes(t, ra), resultBytes(t, rb); !bytes.Equal(x, y) {
			t.Errorf("%s/%s: results differ\n  %s\n  %s", a.Name, m, x, y)
		}
	}
}

// An arbitration filter whose inputs are absent is a no-op: switching
// it off changes no result byte, FilterDecisive included (a filter that
// never narrows has no key).
func TestFilterWithoutInputsIsNoOp(t *testing.T) {
	relations := []struct {
		name    string
		absent  func(p *config.Params) // remove the filter's inputs
		disable func(p *config.Params) // switch the filter off
	}{
		{"bankaffinity/BI off",
			func(p *config.Params) { p.BIEnabled = false },
			func(p *config.Params) { p.Filters.BankAffinity = false }},
		{"bandwidth/no quotas",
			func(p *config.Params) {
				for i := range p.Masters {
					p.Masters[i].BandwidthQuota = 0
				}
			},
			func(p *config.Params) { p.Filters.Bandwidth = false }},
		{"realtime/no RT master",
			func(p *config.Params) {
				for i := range p.Masters {
					p.Masters[i].RealTime = false
				}
			},
			func(p *config.Params) { p.Filters.RealTime = false }},
	}
	for _, rel := range relations {
		t.Run(rel.name, func(t *testing.T) {
			for _, w := range Table1Scenarios() {
				on := withParams(w, rel.absent)
				off := withParams(on, rel.disable)
				sameResult(t, on, off)
			}
		})
	}
}

// Port names are not an input: renaming every master changes only the
// names in the per-master stats.
func TestRenamingMastersChangesOnlyNames(t *testing.T) {
	for _, w := range Table1Scenarios() {
		renamed := withParams(w, func(p *config.Params) {
			for i := range p.Masters {
				p.Masters[i].Name = fmt.Sprintf("port-%d", len(p.Masters)-i)
			}
		})
		for _, m := range []Model{TLM, RTL} {
			a, b := Run(w, m, Options{}), Run(renamed, m, Options{})
			if a.Cycles != b.Cycles || len(a.Stats.Masters) != len(b.Stats.Masters) {
				t.Fatalf("%s/%s: cycles %d vs %d, %d vs %d masters", w.Name, m,
					a.Cycles, b.Cycles, len(a.Stats.Masters), len(b.Stats.Masters))
			}
			for i := range a.Stats.Masters {
				x, y := a.Stats.Masters[i], b.Stats.Masters[i]
				x.Name, y.Name = "", ""
				if x != y {
					t.Errorf("%s/%s: master %d stats differ:\n  %+v\n  %+v", w.Name, m, i, x, y)
				}
			}
			if a.Stats.Masters[0].Name == b.Stats.Masters[0].Name {
				t.Errorf("%s/%s: the rename did not reach the stats", w.Name, m)
			}
		}
	}
}
