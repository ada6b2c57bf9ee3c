package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads a -record file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians and quartiles over their runs, the change and the bound, and
// returns the exit code: 1 when some metric got worse by more than its
// bound or an output was wrong, else 0. A metric whose run-to-run
// spread exceeds its bound is marked unresolved: the two medians cannot
// be told apart at that precision, so it neither passes nor fails.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 1
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 1
	}
	values := func(recs []record, workload, name string) (vals []float64, wrong int, sums map[string]bool) {
		sums = map[string]bool{}
		for _, r := range recs {
			if r.Workload != workload || r.Trace {
				continue
			}
			if !r.Correct {
				wrong++
			}
			if r.Checksum != "" {
				sums[r.Checksum] = true
			}
			if m, ok := r.Metrics[name]; ok {
				vals = append(vals, m.Value)
			}
		}
		return vals, wrong, sums
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-17s %4s %12s %12s %12s | %4s %12s %12s %12s | %8s %6s  %s\n",
		"workload", "metric", "n", "a.median", "a.q1", "a.q3", "n", "b.median", "b.q1", "b.q3", "delta", "bound", "verdict")
	for _, def := range workloads {
		var sumsA, sumsB map[string]bool
		for _, m := range endToEnd {
			va, wrongA, sa := values(a, def.name, m.name)
			vb, wrongB, sb := values(b, def.name, m.name)
			sumsA, sumsB = sa, sb
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			worse := (mb - ma) / ma // positive = b worse, for "lower is better"
			if m.better == "higher" {
				worse = (ma - mb) / ma
			}
			spread := (a3 - a1) / ma
			if s := (b3 - b1) / mb; s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case wrongA+wrongB > 0:
				verdict = "WRONG OUTPUT"
				code = 1
			case spread > m.bound && m.name != "setup_s":
				verdict = fmt.Sprintf("unresolved (spread %.3f)", spread)
			case worse > m.bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-17s %4d %12.4f %12.4f %12.4f | %4d %12.4f %12.4f %12.4f | %+8.3f %6.2f  %s\n",
				def.name, m.name, len(va), ma, a1, a3, len(vb), mb, b1, b3, -worse, m.bound, verdict)
		}
		for s := range sumsA {
			if len(sumsB) > 0 && !sumsB[s] {
				fmt.Fprintf(w, "%-14s simulated-statistics checksum differs between the sets: WRONG OUTPUT\n", def.name)
				code = 1
			}
		}
	}
	return code
}
