package sweep

import (
	"testing"

	"repro/internal/spec"
)

// benchmarkGrid is the design-space grid the repository's benchmark
// (bench/, workload sweep_cluster) posts: the paper's ablation axes on
// seq/write-heavy times 85 consecutive transaction counts, 4080 grid
// points, none of them duplicates.
func benchmarkGrid(tb testing.TB) Grid {
	base, err := spec.ByName("seq/write-heavy")
	if err != nil {
		tb.Fatal(err)
	}
	counts := make([]Value, 85)
	for i := range counts {
		counts[i] = Value{V: 120 + i}
	}
	return Grid{
		Base: base,
		Axes: []Axis{
			{Param: ParamWriteBufferDepth, Values: []Value{{V: 0}, {V: 1}, {V: 2}, {V: 4}, {V: 8}, {V: 16}}},
			{Param: ParamPipelining, Values: []Value{{V: true}, {V: false}}},
			{Param: ParamBIEnabled, Values: []Value{{V: true}, {V: false}}},
			{Param: ParamFilters, Values: []Value{{V: "all"}, {V: "rr-only"}}},
			{Param: ParamCount, Values: counts},
		},
	}
}

func BenchmarkGridWalk(b *testing.B) {
	grid := benchmarkGrid(b)
	b.ReportAllocs()
	walked := 0
	for i := 0; i < b.N; i++ {
		err := grid.Walk(func(_ Variant, err error) error {
			walked++
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if walked != 4080*b.N {
		b.Fatalf("walked %d variants, want %d", walked, 4080*b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(walked), "ns/variant")
}
