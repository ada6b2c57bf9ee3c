package spec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/sim"
)

// FuzzRoundTrip checks the spec codec invariants on arbitrary
// documents: wherever the fast reader answers it must agree with
// encoding/json, decode → encode → decode → encode must fix to stable
// canonical bytes and a stable hash, and for valid specs the compiled
// generators must replay a bit-identical request stream across
// builds (identical requests imply identical simulated cycles — the
// kernels are deterministic functions of the request stream).
func FuzzRoundTrip(f *testing.F) {
	for _, s := range Scenarios() {
		b, err := s.Canonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		ind, err := s.MarshalIndent()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ind)
	}
	f.Add([]byte(`{"version":1,"name":"x","params":{"bus_bytes":4,"masters":[{"name":"a"}]},"masters":[{"kind":"sequential","beats":4,"count":3}]}`))
	// Where the reader declines: case-folded and repeated keys, null,
	// escapes, non-ASCII, non-integer literals in integer fields.
	for _, doc := range []string{
		`{"Version":1,"name":"x","params":{},"masters":[]}`,
		`{"version":1,"name":"x","name":"y","params":{},"masters":[]}`,
		`{"version":1,"name":"x","params":{"ddr":{"TRP":1,"TRP":2}},"masters":[]}`,
		`{"version":1,"name":null,"params":{},"masters":null}`,
		`{"version":1,"name":"x\n","params":{},"masters":[]}`,
		"{\"version\":1,\"name\":\"caf\xc3\xa9\",\"params\":{},\"masters\":[]}",
		`{"version":1e0,"name":"x","params":{},"masters":[{"kind":"random","count":-0,"write_frac":1e-7}]}`,
		`{"version":1,"name":"x","params":{"addr_map":{"RowBits":18446744073709551616}},"masters":[]}`,
		`{"version":1,"name":"x","params":{},"masters":[]} `,
	} {
		f.Add([]byte(doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkReader(t, data)
		s, err := Decode(data)
		if err != nil {
			return // not a spec; nothing to round-trip
		}
		c1, err := s.Canonical()
		if err != nil {
			t.Skip("unencodable value (e.g. NaN) slipped through decode")
		}
		s2, err := Decode(c1)
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, c1)
		}
		c2, err := s2.Canonical()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical bytes unstable:\n%s\n%s", c1, c2)
		}
		h1, err1 := s.Hash()
		h2, err2 := s2.Hash()
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("hash unstable: %q (%v) vs %q (%v)", h1, err1, h2, err2)
		}
		checkDigests(t, s)

		if s.Validate() != nil {
			return // invalid specs only need codec stability
		}
		// Compiled workloads must replay identically: drive two
		// independent builds with the same completion-time sequence and
		// require bit-identical requests.
		g1, err := s.Gens()
		if err != nil {
			t.Fatalf("valid spec failed to compile: %v", err)
		}
		g2, err := s2.Gens()
		if err != nil {
			t.Fatalf("round-tripped spec failed to compile: %v", err)
		}
		for m := range g1 {
			var prevDone uint64
			for n := 0; n < 64; n++ {
				r1, ok1 := g1[m].Next(sim.Cycle(prevDone))
				r2, ok2 := g2[m].Next(sim.Cycle(prevDone))
				if ok1 != ok2 || r1 != r2 {
					t.Fatalf("master %d request %d diverges: %+v/%v vs %+v/%v", m, n, r1, ok1, r2, ok2)
				}
				if !ok1 {
					break
				}
				prevDone = uint64(r1.At) + 7 // arbitrary but shared completion model
			}
		}
	})
}

// fuzzKinds maps the fuzzer's kind selector onto generator kinds; the
// last entry keeps unknown kinds in play.
var fuzzKinds = []string{KindSequential, KindRandom, KindBursty, KindStream, KindScript, "fancy"}

// footprintCase is one FuzzFootprintOracle input: every GenSpec field
// of the master under test, the platform bus width, and the base of a
// fixed neighbour master that gives the overlap check something to hit.
type footprintCase struct {
	g         GenSpec
	busBytes  int
	neighbour uint32
}

// add seeds the fuzzer with the case. Script requests travel as six
// bytes each: a big-endian address, the beat count and a write flag.
func (c footprintCase) add(f *testing.F) {
	kind := slices.Index(fuzzKinds, c.g.Kind)
	var reqs []byte
	for _, r := range c.g.Reqs {
		reqs = binary.BigEndian.AppendUint32(reqs, r.Addr)
		reqs = append(reqs, byte(r.Beats), 0)
		if r.Write {
			reqs[len(reqs)-1] = 1
		}
	}
	g := c.g
	f.Add(uint8(kind), g.Base, g.Beats, g.Count, g.Gap, g.WriteEvery, g.WrapBytes, g.StrideBytes,
		g.BeatBytes, g.Seed, g.WindowBytes, g.MaxBeats, g.WriteFrac, g.MeanGap, g.BurstTxns,
		g.IdleGap, g.Period, g.Write, reqs, c.busBytes, c.neighbour)
}

// FuzzFootprintOracle holds the closed-form footprints to the
// enumerating oracle (oracle_test.go): over every GenSpec field and
// bus width, each master's merged intervals and the whole spec's
// Validate error text must be identical.
func FuzzFootprintOracle(f *testing.F) {
	const top = math.MaxUint32
	for _, s := range append(Scenarios(), InterleavingSpec(true, 0), PagePolicySpec(false, 0), BusWidthSpec(8, 0)) {
		for _, g := range s.Masters {
			footprintCase{g: g, busBytes: s.Params.BusBytes, neighbour: 0x80000}.add(f)
		}
	}
	seq := GenSpec{Kind: KindSequential, Beats: 8, Count: 150}
	with := func(mut func(*GenSpec)) GenSpec { g := seq; mut(&g); return g }
	for _, c := range []footprintCase{
		// Wrapped, strided and wide-beat walks.
		{with(func(g *GenSpec) { g.WrapBytes = 0x400 }), 4, 0x400},
		{with(func(g *GenSpec) { g.WrapBytes = 0x401; g.StrideBytes = 0x100 }), 4, 0x420},
		{with(func(g *GenSpec) { g.WrapBytes = 7; g.StrideBytes = 0x1000 }), 4, 0x20},
		{with(func(g *GenSpec) { g.StrideBytes = 0x2000 }), 4, 0x1000},
		{with(func(g *GenSpec) { g.StrideBytes = 24 }), 4, 0x10000},
		{with(func(g *GenSpec) { g.BeatBytes = 8 }), 4, 0x2580},
		{with(func(g *GenSpec) { g.BeatBytes = 8 }), 8, 0x2580},
		{with(func(g *GenSpec) { g.BeatBytes = 1 }), 16, 0x500},
		{GenSpec{Kind: KindStream, Base: 0x1000, Beats: 4, Period: 50, Count: 400, WrapBytes: 0x100}, 8, 0x1100},
		{GenSpec{Kind: KindBursty, Base: 0x1000, Beats: 16, BurstTxns: 3, Count: 90}, 2, 0x2680},
		{GenSpec{Kind: KindRandom, Seed: 1, WindowBytes: 1 << 12, MaxBeats: 8, Count: 10}, 8, 1 << 12},
		{GenSpec{Kind: KindScript, Reqs: []ReqSpec{{Addr: 0x2000, Beats: 4}, {Addr: 0x1000, Beats: 4, Write: true}, {Addr: 0x1010, Beats: 16}}}, 8, 0x1050},
		// Both sides of the enumeration cap, contiguous and sparse.
		{with(func(g *GenSpec) { g.Count = footprintCap - 1 }), 4, 0x200000},
		{with(func(g *GenSpec) { g.Count = footprintCap }), 4, 0x200000},
		{with(func(g *GenSpec) { g.Count = footprintCap + 1 }), 4, 0x200020},
		{with(func(g *GenSpec) { g.Count = 200000 }), 4, 0x400000},
		{with(func(g *GenSpec) { g.Count = footprintCap - 1; g.StrideBytes = 0x1000 }), 4, 0x800},
		{with(func(g *GenSpec) { g.Count = footprintCap + 7; g.StrideBytes = 0x1000 }), 4, 0x800},
		{with(func(g *GenSpec) { g.Count = 1 << 20; g.StrideBytes = 0x1000; g.WrapBytes = 0x100000 }), 4, 0x100010},
		// Bases within one span of the top of the address space, and
		// walks that run over it.
		{with(func(g *GenSpec) { g.Base = top - 31 }), 4, 0},
		{with(func(g *GenSpec) { g.Base = top - 32; g.Count = 1 }), 4, top - 8},
		{with(func(g *GenSpec) { g.Base = top - 15; g.Count = 3 }), 4, 0x30},
		{with(func(g *GenSpec) { g.Base = top - 0x1ff; g.WrapBytes = 0x200 }), 4, 0},
		{with(func(g *GenSpec) { g.Base = top - 0x1ff; g.WrapBytes = 0x300; g.Count = 40 }), 4, 0x80},
		{with(func(g *GenSpec) { g.Base = 0x100; g.StrideBytes = top; g.Count = 300 }), 4, 0x40},
		{with(func(g *GenSpec) { g.Base = 0x100; g.StrideBytes = 1 << 31; g.Count = footprintCap }), 4, 0x40},
		{with(func(g *GenSpec) {
			g.Base = 0x100
			g.StrideBytes = 0x10001000
			g.Count = 70000
			g.WrapBytes = 0x80000000
		}), 4, 0x40},
		{GenSpec{Kind: KindStream, Base: top - 0x3f, Beats: 4, Period: 9, Count: 64}, 4, 0x100},
		{GenSpec{Kind: KindBursty, Base: top - 0x7, Beats: 1, BurstTxns: 2, Count: footprintCap}, 1, 0x40000},
		// Invalid descriptors: only the error text is compared.
		{with(func(g *GenSpec) { g.Seed = 9; g.Period = 4; g.Write = true }), 4, 0x80000},
		{GenSpec{Kind: "fancy", Count: 3}, 3, 0},
	} {
		c.add(f)
	}

	f.Fuzz(func(t *testing.T, kind uint8, base uint32, beats, count int, gap uint64, writeEvery int,
		wrapBytes, strideBytes uint32, beatBytes int, seed int64, windowBytes uint32, maxBeats int,
		writeFrac float64, meanGap, burstTxns int, idleGap, period uint64, write bool, reqs []byte,
		busBytes int, neighbour uint32) {
		g := GenSpec{
			Kind: fuzzKinds[int(kind)%len(fuzzKinds)], Base: base, Beats: beats, Count: count, Gap: gap,
			WriteEvery: writeEvery, WrapBytes: wrapBytes, StrideBytes: strideBytes, BeatBytes: beatBytes,
			Seed: seed, WindowBytes: windowBytes, MaxBeats: maxBeats, WriteFrac: writeFrac,
			MeanGap: meanGap, BurstTxns: burstTxns, IdleGap: idleGap, Period: period, Write: write,
		}
		for ; len(reqs) >= 6 && len(g.Reqs) < 64; reqs = reqs[6:] {
			g.Reqs = append(g.Reqs, ReqSpec{Addr: binary.BigEndian.Uint32(reqs), Beats: int(reqs[4]), Write: reqs[5]&1 != 0})
		}
		p := config.Default(2)
		p.BusBytes = busBytes
		s := Spec{SpecVersion: Version, Name: "fuzz", Params: p, Masters: []GenSpec{
			g, {Kind: KindSequential, Base: neighbour, Beats: 4, Count: 16},
		}}

		got, want := s.Validate(), oracleValidate(s)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("Validate diverges from the oracle on %+v (bus %d):\n got %v\nwant %v", g, busBytes, got, want)
		}
		// Footprints are defined for sound descriptors only (the oracle
		// builds generators, which divide by the fields validation checks).
		var errs check.Errors
		errs.Add(p.Validate())
		g.validate(&errs, 0)
		if !errs.Empty() || len(g.strayFields()) != 0 {
			return
		}
		for m, g := range s.Masters {
			got, want := g.footprint(nil, m, busBytes), oracleFootprint(g, m, busBytes)
			if !slices.Equal(got, want) {
				t.Fatalf("master %d footprint diverges from the oracle on %+v (bus %d):\n got %v\nwant %v", m, g, busBytes, got, want)
			}
		}
	})
}

// TestValidateAllocsIndependentOfCount gates the point of the closed
// form: validating a contiguous walk costs the same whether it has 150
// transactions or 60 000.
func TestValidateAllocsIndependentOfCount(t *testing.T) {
	allocs := func(count int) float64 {
		s, err := ByName("seq/write-heavy")
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Masters {
			s.Masters[i].Count = count
			s.Masters[i].Base = uint32(i) << 28 // room for the long walks
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() { benchErr = s.Validate() })
	}
	short, long := allocs(150), allocs(60000)
	if long > short {
		t.Fatalf("Validate allocates %v times at count 60000, %v at count 150", long, short)
	}
}

// TestStrayFieldsMatchOracle sets every field on every kind: names,
// per-kind allowances and the sorted order must match the oracle's.
func TestStrayFieldsMatchOracle(t *testing.T) {
	all := GenSpec{
		Base: 1, Beats: 1, Count: 1, Gap: 1, WriteEvery: 1, WrapBytes: 1, StrideBytes: 1, BeatBytes: 1,
		Seed: 1, WindowBytes: 1, MaxBeats: 1, WriteFrac: 1, MeanGap: 1, BurstTxns: 1, IdleGap: 1,
		Period: 1, Write: true, Reqs: []ReqSpec{{Beats: 1}},
	}
	for _, kind := range fuzzKinds {
		g := all
		g.Kind = kind
		if got, want := g.strayFields(), oracleStrayFields(g); !slices.Equal(got, want) {
			t.Errorf("%s: stray fields %v, oracle %v", kind, got, want)
		}
	}
	if stray := (GenSpec{Kind: KindStream, Base: 1, Beats: 4, Count: 3, Period: 9}).strayFields(); stray != nil {
		t.Errorf("clean descriptor reports %v", stray)
	}
}

// TestFootprintOracleRandomWalks drives the oracle comparison with
// valid walk descriptors drawn to sit on the closed form's edges —
// steps around the span, wraps around the step, bases and strides that
// carry the walk over the top of the address space — which byte-level
// mutation reaches only slowly.
func TestFootprintOracleRandomWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(20050307))
	pick := func(vs ...uint32) uint32 { return vs[rng.Intn(len(vs))] }
	near := func(v uint32) uint32 { return v + uint32(rng.Intn(9)) - 4 }
	for i := 0; i < 6000; i++ {
		bus := 1 << rng.Intn(5)
		g := GenSpec{
			Kind:  []string{KindSequential, KindStream, KindBursty}[rng.Intn(3)],
			Beats: 1 + rng.Intn(MaxBurstBeats),
			Count: 1 + rng.Intn(300),
			Base:  pick(0, 0x1000, near(1<<31), math.MaxUint32-uint32(rng.Intn(0x4000)), rng.Uint32()),
		}
		if rng.Intn(100) == 0 {
			g.Count = footprintCap - 2 + rng.Intn(5)
		}
		span := uint32(g.Beats * bus)
		switch g.Kind {
		case KindSequential:
			g.BeatBytes = int(pick(0, 0, 1, 2, 4, 8, 16))
			g.StrideBytes = pick(0, 0, near(span), near(2*span), 1, 1<<31, near(math.MaxUint32-span), rng.Uint32())
			g.WrapBytes = pick(0, 0, near(span), near(8*span), near(uint32(g.Count)*span), -g.Base, near(-g.Base), rng.Uint32())
		case KindStream:
			g.Period = 1
			g.WrapBytes = pick(0, near(span), near(8*span), -g.Base, near(-g.Base), rng.Uint32())
		case KindBursty:
			g.BurstTxns = 1 + rng.Intn(4)
		}
		var errs check.Errors
		g.validate(&errs, 0)
		if !errs.Empty() || len(g.strayFields()) != 0 {
			t.Fatalf("generated an invalid descriptor %+v: %v", g, errs.Err())
		}
		if got, want := g.footprint(nil, 0, bus), oracleFootprint(g, 0, bus); !slices.Equal(got, want) {
			t.Fatalf("footprint diverges from the oracle on %+v (bus %d):\n got %v\nwant %v", g, bus, got, want)
		}
	}
}
