package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/config"
)

// specOf returns a small valid two-master spec for mutation tests.
func specOf() Spec {
	return Spec{
		SpecVersion: Version,
		Name:        "test/basic",
		Params:      config.Default(2),
		Masters: []GenSpec{
			{Kind: KindSequential, Base: 0x0000, Beats: 8, Count: 10, Gap: 2},
			{Kind: KindStream, Base: 0x8000, Beats: 4, Period: 50, Count: 10},
		},
	}
}

func TestDecodeEncodeCanonical(t *testing.T) {
	s := specOf()
	c1, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode the indented rendering: same canonical bytes.
	ind, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Decode(ind)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonical bytes differ:\n%s\n%s", c1, c2)
	}
	h1, _ := s.Hash()
	h2, _ := s2.Hash()
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("hash unstable: %q vs %q", h1, h2)
	}
}

func TestDecodeStrictness(t *testing.T) {
	base, _ := specOf().Canonical()
	cases := []struct {
		name string
		doc  string
	}{
		{"unknown field", `{"version":1,"name":"x","bogus":3,"params":{},"masters":[]}`},
		{"trailing data", string(base) + `{"again":true}`},
		{"wrong version", `{"version":99,"name":"x","params":{},"masters":[]}`},
		{"not json", `{nope`},
	}
	for _, c := range cases {
		if _, err := Decode([]byte(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := Decode(base); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestHashDistinguishesSpecs(t *testing.T) {
	a := specOf()
	b := specOf()
	b.Masters[0].Gap = 3
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha == hb {
		t.Fatal("distinct specs share a hash")
	}
}

func TestValidateAcceptsLibrary(t *testing.T) {
	for _, s := range Scenarios() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	for _, s := range []Spec{
		AblationSpec(8, 0), SaturatingSpec(8, 0), PagePolicySpec(true, 0),
		BusWidthSpec(8, 0), InterleavingSpec(true, 0),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad version", func(s *Spec) { s.SpecVersion = 2 }, "version"},
		{"no name", func(s *Spec) { s.Name = "" }, "name required"},
		{"master count mismatch", func(s *Spec) { s.Masters = s.Masters[:1] }, "descriptors"},
		{"zero masters", func(s *Spec) { s.Params.Masters = nil; s.Masters = nil }, "master required"},
		{"unknown kind", func(s *Spec) { s.Masters[0].Kind = "fancy" }, "unknown generator kind"},
		{"missing kind", func(s *Spec) { s.Masters[0].Kind = "" }, "kind required"},
		{"zero count", func(s *Spec) { s.Masters[0].Count = 0 }, "count"},
		{"bad beats", func(s *Spec) { s.Masters[0].Beats = 0 }, "beats"},
		{"overlong burst", func(s *Spec) { s.Masters[0].Beats = 32 }, "beats"},
		{"params max_cycles", func(s *Spec) { s.Params.MaxCycles = 1000 }, "max_cycles"},
		{"unbounded max_cycles", func(s *Spec) { s.MaxCycles = 1 << 40 }, "max_cycles"},
		{"unbounded count", func(s *Spec) { s.Masters[0].Count = MaxCount + 1 }, "count"},
		{"stream period", func(s *Spec) { s.Masters[1].Period = 0 }, "period"},
		{"qos out of range", func(s *Spec) {
			s.Params.Masters[0].RealTime = true
			s.Params.Masters[0].QoSObjective = 1 << 40
		}, "objective"},
		{"rt without objective", func(s *Spec) { s.Params.Masters[0].RealTime = true }, "objective"},
		{"overlapping ranges", func(s *Spec) { s.Masters[1].Base = 0x0004 }, "overlapping"},
	}
	for _, c := range cases {
		s := specOf()
		c.mut(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestValidateCollectsAllProblems(t *testing.T) {
	s := specOf()
	s.Name = ""
	s.Masters[0].Kind = "fancy"
	s.Params.BusBytes = 3
	err := s.Validate()
	if err == nil {
		t.Fatal("accepted")
	}
	for _, want := range []string{"name required", "fancy", "bus width"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q misses %q", err, want)
		}
	}
}

func TestRandomGeneratorsOverlapByWindow(t *testing.T) {
	s := specOf()
	s.Masters[0] = GenSpec{Kind: KindRandom, Seed: 1, Base: 0x0000, WindowBytes: 1 << 16, MaxBeats: 8, Count: 10}
	s.Masters[1] = GenSpec{Kind: KindStream, Base: 0x8000, Beats: 4, Period: 50, Count: 10}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("window overlap not caught: %v", err)
	}
	s.Masters[1].Base = 1 << 16 // just past the window
	if err := s.Validate(); err != nil {
		t.Fatalf("disjoint window rejected: %v", err)
	}
}

func TestStrayFieldsRejected(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"gap on stream", func(s *Spec) { s.Masters[1].Gap = 5 }, `"gap"`},
		{"seed on sequential", func(s *Spec) { s.Masters[0].Seed = 9 }, `"seed"`},
		{"period on sequential", func(s *Spec) { s.Masters[0].Period = 9 }, `"period"`},
		{"reqs on stream", func(s *Spec) { s.Masters[1].Reqs = []ReqSpec{{Beats: 4}} }, `"reqs"`},
	}
	for _, c := range cases {
		s := specOf()
		c.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "not used by this kind") {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestOverlapBeyondEnumerationCap(t *testing.T) {
	// Master 0 walks contiguously from 0 for 200k transactions,
	// reaching master 1's base (0x400000) long after the enumeration
	// cap; the conservative extent fallback must still catch it.
	s := specOf()
	s.Masters[0] = GenSpec{Kind: KindSequential, Base: 0, Beats: 8, Count: 200000}
	s.Masters[1] = GenSpec{Kind: KindSequential, Base: 0x400000, Beats: 8, Count: 10}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("overlap past the cap not caught: %v", err)
	}
	// Disjoint version: master 1 moved past master 0's full extent.
	s.Masters[1].Base = 200000*8*4 + 64
	if err := s.Validate(); err != nil {
		t.Fatalf("disjoint long walk rejected: %v", err)
	}
}

func TestAllOverlappingPairsReported(t *testing.T) {
	s := specOf()
	s.Params = mustMasters(s.Params, 4)
	s.Masters = []GenSpec{
		{Kind: KindSequential, Base: 0x0000, Beats: 8, Count: 10},
		{Kind: KindSequential, Base: 0x0004, Beats: 8, Count: 10},
		{Kind: KindSequential, Base: 0x90000, Beats: 8, Count: 10},
		{Kind: KindSequential, Base: 0x90004, Beats: 8, Count: 10},
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("accepted")
	}
	if !strings.Contains(err.Error(), "masters 0 and 1") || !strings.Contains(err.Error(), "masters 2 and 3") {
		t.Fatalf("not all overlapping pairs reported: %v", err)
	}
}

func TestWideBusSpansWidenFootprints(t *testing.T) {
	// On an 8-byte bus a 4-beat script request touches 32 bytes; a
	// second master 16 bytes past the script address must collide.
	s := specOf()
	s.Params.BusBytes = 8
	s.Params.AddrMap.BeatBytesLog2 = 3
	s.Masters[0] = GenSpec{Kind: KindScript, Reqs: []ReqSpec{{Addr: 0x1000, Beats: 4}}}
	s.Masters[1] = GenSpec{Kind: KindStream, Base: 0x1010, Beats: 4, Period: 50, Count: 4}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("wide-bus overlap not caught: %v", err)
	}
}

func TestWideBusRandomWindowOverlap(t *testing.T) {
	// On an 8-byte bus a random burst aligned near the window end
	// reaches past it by beats*(bus-4) bytes; a master starting right
	// at the window boundary must be flagged.
	s := specOf()
	s.Params.BusBytes = 8
	s.Params.AddrMap.BeatBytesLog2 = 3
	s.Masters[0] = GenSpec{Kind: KindRandom, Seed: 1, Base: 0, WindowBytes: 1 << 12, MaxBeats: 8, Count: 10}
	s.Masters[1] = GenSpec{Kind: KindStream, Base: 1 << 12, Beats: 4, Period: 50, Count: 4}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("wide-bus window spill not caught: %v", err)
	}
	// Past the spill margin (8 beats * 4 extra bytes) it is legal.
	s.Masters[1].Base = 1<<12 + 32
	if err := s.Validate(); err != nil {
		t.Fatalf("disjoint placement rejected: %v", err)
	}
}

func TestDecodeList(t *testing.T) {
	a, _ := specOf().Canonical()
	b, _ := specOf().MarshalIndent()
	single, err := DecodeList(a)
	if err != nil || len(single) != 1 {
		t.Fatalf("single: %v", err)
	}
	arr, err := DecodeList([]byte("[" + string(a) + "," + string(b) + "]"))
	if err != nil || len(arr) != 2 {
		t.Fatalf("array: %v", err)
	}
	if _, err := DecodeList([]byte("[" + string(a) + "] trailing")); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := DecodeList([]byte(`[{"version":9,"name":"x","params":{},"masters":[]}]`)); err == nil {
		t.Fatal("bad version in array accepted")
	}
	if _, err := DecodeList([]byte(`{nope`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestNestedOverlapPairsReported(t *testing.T) {
	// Masters 1 and 2 overlap while both nested inside master 0's
	// wider interval; the sweep must still report the (1,2) pair.
	s := specOf()
	s.Params = mustMasters(s.Params, 3)
	s.Masters = []GenSpec{
		{Kind: KindSequential, Base: 0x0000, Beats: 8, Count: 100}, // [0, 3200)
		{Kind: KindSequential, Base: 0x0100, Beats: 4, Count: 4},   // [256, 320)
		{Kind: KindSequential, Base: 0x0108, Beats: 4, Count: 2},   // [264, 296)
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("accepted")
	}
	for _, want := range []string{"masters 0 and 1", "masters 0 and 2", "masters 1 and 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("missing pair %q in %v", want, err)
		}
	}
}

// mustMasters resizes the platform to n masters.
func mustMasters(p config.Params, n int) config.Params {
	q := config.Default(n)
	q.BusBytes = p.BusBytes
	return q
}

func TestInterleavedStridesPassOverlapCheck(t *testing.T) {
	// The A3 workload interleaves two masters' spans without sharing a
	// byte; the footprint check must not false-positive on it.
	if err := InterleavingSpec(true, 0).Validate(); err != nil {
		t.Fatalf("interleaved strides rejected: %v", err)
	}
}

func TestGensBuildFreshGenerators(t *testing.T) {
	s := specOf()
	g1, err := s.Gens()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Gens()
	if err != nil {
		t.Fatal(err)
	}
	if g1[0] == g2[0] {
		t.Fatal("Gens returned a shared generator")
	}
	// Identical replay: same request stream from both builds.
	for i := 0; i < 10; i++ {
		r1, ok1 := g1[0].Next(0)
		r2, ok2 := g2[0].Next(0)
		if ok1 != ok2 || r1 != r2 {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, r1, r2)
		}
	}
}

func TestScriptRoundTrip(t *testing.T) {
	s := specOf()
	s.Masters[0] = GenSpec{Kind: KindScript, Reqs: []ReqSpec{
		{At: 0, Addr: 0x0000, Beats: 4},
		{At: 10, Addr: 0x0100, Beats: 8, Write: true},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := s2.Gens()
	if err != nil {
		t.Fatal(err)
	}
	r, ok := gens[0].Next(0)
	if !ok || r.Addr != 0 || r.Beats != 4 {
		t.Fatalf("script lost: %+v ok=%v", r, ok)
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("seq/read-dominant")
	if err != nil || s.Name != "seq/read-dominant" {
		t.Fatalf("lookup failed: %v", err)
	}
	if _, err := ByName("no/such"); err == nil {
		t.Fatal("unknown scenario found")
	}
}

func TestTable1SpecsHashesDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, s := range Table1Specs() {
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("scenarios %s and %s share hash %s", prev, s.Name, h)
		}
		seen[h] = s.Name
	}
	if len(seen) != 12 {
		t.Fatalf("want 12 scenarios, got %d", len(seen))
	}
}

func TestCanonicalIsCompactJSON(t *testing.T) {
	b, err := specOf().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), b) {
		t.Fatal("canonical form is not compact")
	}
}

// checkDigests holds Digests to the two separate encodings it replaces.
func checkDigests(t *testing.T, s Spec) {
	t.Helper()
	canonical, hash, workload, err := s.Digests()
	if err != nil {
		t.Fatal(err)
	}
	wantCanonical, _ := s.Canonical()
	wantHash, _ := s.Hash()
	if !bytes.Equal(canonical, wantCanonical) || hash != wantHash {
		t.Fatalf("Digests of %q: canonical/hash differ from Canonical/Hash", s.Name)
	}
	s.Name = ""
	unnamed, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if workload != sha256.Sum256(unnamed) {
		t.Fatalf("workload digest is not the hash of the unnamed encoding:\n%s\n%s", canonical, unnamed)
	}
}

func TestDigestsCutTheNameOut(t *testing.T) {
	for _, s := range Scenarios() {
		checkDigests(t, s)
	}
	s := specOf()
	for _, name := range []string{
		"", `"`, `\`, `\"`, `a"b\\"c\`, `,"name":"x","params":{}`, "<tag>&amp;", "line\nbreak\ttab",
		"café/  ", "bad\xffutf8", `ends with \\`, `{"version":1,"name":"nested"}`,
	} {
		s.Name = name
		checkDigests(t, s)
	}
}
