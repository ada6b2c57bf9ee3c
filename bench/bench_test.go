package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// declared is the part of BENCHMARK.json the harness must agree with.
type declared struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationMatchesHarness fails when BENCHMARK.json and the
// harness's own tables name different workloads or metrics, in either
// direction, or when a name or unit leaves the allowed alphabet.
func TestDeclarationMatchesHarness(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []declaredMetric, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness has %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %q (unit %q): outside the allowed alphabet", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("%s %q declared twice", kind, g.Name)
			}
			seen[g.Name] = true
			if i >= len(want) {
				continue
			}
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (bounds && g.Bound != w.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
}

// TestQuickPass runs every workload, untraced and traced, at -quick
// size and fails if a declared metric is not emitted, an undeclared one
// is, or an output check fails.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and simulates; skipped under -short")
	}
	d := readDeclared(t)
	for _, trace := range []bool{false, true} {
		want := d.EndToEnd
		if trace {
			want = d.PerLayer
		}
		for _, def := range workloads {
			cfg := config{seed: defaultSeed, seconds: 1, trace: trace, quick: true, outDir: t.TempDir(), clients: maxClients}
			rec, err := runWorkload(def, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d failed of %d", def.name, trace, rec.Correct, rec.Failed, rec.Attempted)
			}
			for _, m := range want {
				if _, ok := rec.Metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: declared metric %q not emitted", def.name, trace, m.Name)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, %d declared", def.name, trace, len(rec.Metrics), len(want))
			}
			if !trace {
				for name, m := range rec.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %q is %v; it must never be 0", def.name, name, m.Value)
					}
				}
			}
		}
	}
}
