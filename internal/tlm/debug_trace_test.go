package tlm

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/platform"
	"repro/internal/rtl"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestDebugTraceDiff prints the first divergent transaction between the
// two models for a contended workload. Skipped unless -run selects it
// explicitly with -v; it never fails.
func TestDebugTraceDiff(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("debug helper")
	}
	mk := func() []traffic.Generator {
		return []traffic.Generator{
			&traffic.Sequential{Base: 0x0000, Beats: 4, Count: 10},
			&traffic.Sequential{Base: 0x80000, Beats: 4, Count: 10},
		}
	}
	p := params(2)
	rtr := trace.New(0)
	rb := rtl.New(platform.Config{Params: p, Gens: mk(), Checker: &check.Checker{}, Tracer: rtr})
	rb.Run(0)
	ttr := trace.New(0)
	tb := New(platform.Config{Params: p, Gens: mk(), Checker: &check.Checker{}, Tracer: ttr})
	tb.Run(0)
	rr, tr2 := rtr.Records(), ttr.Records()
	n := len(rr)
	if len(tr2) < n {
		n = len(tr2)
	}
	for i := 0; i < n; i++ {
		a, b := rr[i], tr2[i]
		mark := "  "
		if a != b {
			mark = "**"
		}
		fmt.Printf("%s rtl: m%d %s a=%#x req=%d grant=%d first=%d done=%d %s\n", mark, a.Master, dirOf(a.Write), a.Addr, a.Req, a.Grant, a.FirstData, a.Done, a.Kind)
		fmt.Printf("%s tlm: m%d %s a=%#x req=%d grant=%d first=%d done=%d %s\n", mark, b.Master, dirOf(b.Write), b.Addr, b.Req, b.Grant, b.FirstData, b.Done, b.Kind)
	}
}

func dirOf(w bool) string {
	if w {
		return "W"
	}
	return "R"
}
