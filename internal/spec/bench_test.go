package spec

import (
	"testing"

	"repro/internal/config"
)

// benchSpec is one workload of the spec-path benchmarks.
type benchSpec struct {
	kind string
	spec Spec
}

// benchSpecs returns one workload per generator kind: the spec path
// (decode, validate, hash) is benchmarked per kind because validation
// cost used to depend on what the generators enumerate.
func benchSpecs(tb testing.TB) []benchSpec {
	var out []benchSpec
	for _, lib := range []benchSpec{
		{kind: KindSequential, spec: Spec{Name: "seq/write-heavy"}},
		{kind: KindRandom, spec: Spec{Name: "rand/write-heavy"}},
		{kind: KindBursty, spec: Spec{Name: "burst/write-heavy"}},
		{kind: KindStream, spec: Spec{Name: "stream/write-heavy"}},
	} {
		s, err := ByName(lib.spec.Name)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, benchSpec{lib.kind, s})
	}
	script := Spec{SpecVersion: Version, Name: "bench/script", Params: config.Default(2)}
	for m := 0; m < 2; m++ {
		g := GenSpec{Kind: KindScript}
		for i := 0; i < 150; i++ {
			g.Reqs = append(g.Reqs, ReqSpec{At: uint64(4 * i), Addr: uint32(m<<20 + 32*i), Write: i%3 == 0, Beats: 8})
		}
		script.Masters = append(script.Masters, g)
	}
	return append(out, benchSpec{KindScript, script})
}

// Sinks the compiler cannot prove dead.
var (
	benchErr     error
	benchHash    string
	benchDecoded Spec
)

func BenchmarkValidate(b *testing.B) {
	for _, c := range benchSpecs(b) {
		s := c.spec
		b.Run(c.kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchErr = s.Validate()
			}
			if benchErr != nil {
				b.Fatal(benchErr)
			}
		})
	}
}

func BenchmarkHash(b *testing.B) {
	for _, c := range benchSpecs(b) {
		s := c.spec
		b.Run(c.kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchHash, benchErr = s.Hash()
			}
			if benchErr != nil {
				b.Fatal(benchErr)
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, c := range benchSpecs(b) {
		doc, err := c.spec.Canonical()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.kind, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				benchDecoded, benchErr = Decode(doc)
			}
			if benchErr != nil {
				b.Fatal(benchErr)
			}
		})
	}
}
