package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
)

// jsonDecode is encoding/json's reading of a spec document, the
// definition the fast reader is held to: strict, and nothing but
// whitespace after the document.
func jsonDecode(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return s, errors.New("trailing data")
	}
	return s, nil
}

// checkCanonical holds Canonical, Hash and Digests to json.Marshal: the
// same bytes, or the same error for a value json.Marshal refuses.
func checkCanonical(t *testing.T, s Spec) {
	t.Helper()
	want, werr := json.Marshal(s)
	got, gerr := s.Canonical()
	if werr != nil {
		if gerr == nil || gerr.Error() != "spec: "+werr.Error() {
			t.Fatalf("json.Marshal refuses with %q, Canonical says %v", werr, gerr)
		}
		if _, err := s.Hash(); err == nil || err.Error() != gerr.Error() {
			t.Fatalf("Hash error %v, Canonical error %v", err, gerr)
		}
		return
	}
	if gerr != nil || !bytes.Equal(got, want) {
		t.Fatalf("Canonical differs from json.Marshal (err %v):\n got %s\nwant %s", gerr, got, want)
	}
	canonical, hash, workload, err := s.Digests()
	if err != nil || !bytes.Equal(canonical, want) || hash != hashCanonical(want) {
		t.Fatalf("Digests differ from json.Marshal (err %v):\n%s", err, canonical)
	}
	if h, err := s.Hash(); err != nil || h != hash {
		t.Fatalf("Hash %q (%v), Digests %q", h, err, hash)
	}
	s.Name = ""
	unnamed, err := json.Marshal(s)
	if err != nil || workload != sha256.Sum256(unnamed) {
		t.Fatalf("workload digest is not the hash of the unnamed encoding %s", unnamed)
	}
}

// byteSource draws the fields of a Spec from fuzz bytes, reading zeros
// once the bytes run out. Strings and floats come from pools of the
// encoder's edge cases as often as from the raw bytes.
type byteSource struct{ b []byte }

func (s *byteSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// u64 is zero, a small value or a full 64-bit draw.
func (s *byteSource) u64() uint64 {
	switch sel := s.byte(); sel % 4 {
	case 0:
		return 0
	case 1, 2:
		return uint64(s.byte())
	}
	var w [8]byte
	for i := range w {
		w[i] = s.byte()
	}
	return binary.LittleEndian.Uint64(w[:])
}

func (s *byteSource) bool() bool { return s.byte()&1 == 1 }

var (
	edgeStrings = []string{
		"", "m0", "<tag>&amp;", "a\xe2\x80\xa8b\xe2\x80\xa9c", "bad\xffutf8\xc3", `q"uo\te`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
		"caf\xc3\xa9 \xe2\x98\x95", "\xed\xa0\x80", "\U0001F600", `,"name":"x"`,
	}
	edgeFloats = []float64{
		1e-7, 1e-6, 1e21, 1e20, 5e-324, math.Copysign(0, -1), 0.1, -2.5, math.MaxFloat64, 123456789,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
)

func (s *byteSource) str() string {
	sel := s.byte()
	if sel&0x80 == 0 {
		return edgeStrings[int(sel)%len(edgeStrings)]
	}
	n := min(int(sel&0x0f), len(s.b))
	out := string(s.b[:n])
	s.b = s.b[n:]
	return out
}

func (s *byteSource) float() float64 {
	sel := s.byte()
	switch sel % 4 {
	case 0:
		return 0
	case 1:
		return edgeFloats[int(sel/4)%len(edgeFloats)]
	case 2:
		return float64(sel) / 7
	}
	var w [8]byte
	for i := range w {
		w[i] = s.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

// list returns nil, an empty slice or up to three elements.
func list[T any](s *byteSource, elem func() T) []T {
	switch sel := s.byte(); sel % 5 {
	case 0:
		return nil
	case 1:
		return []T{}
	default:
		out := make([]T, int(sel%5)-1)
		for i := range out {
			out[i] = elem()
		}
		return out
	}
}

// spec builds a whole Spec, every field drawn.
func (s *byteSource) spec() Spec {
	p := config.Params{
		BusBytes: int(s.u64()),
		Masters: list(s, func() config.MasterCfg {
			return config.MasterCfg{Name: s.str(), RealTime: s.bool(), QoSObjective: s.u64(), BandwidthQuota: s.float()}
		}),
		WriteBufferDepth: int(s.u64()), Pipelining: s.bool(), BIEnabled: s.bool(), BILatency: s.u64(),
		UrgencyThreshold: s.u64(), ClosedPage: s.bool(), MaxCycles: s.u64(),
	}
	p.Filters.Permission, p.Filters.Urgency, p.Filters.RealTime = s.bool(), s.bool(), s.bool()
	p.Filters.Bandwidth, p.Filters.BankAffinity, p.Filters.WriteBuffer = s.bool(), s.bool(), s.bool()
	p.SRAM.Enabled, p.SRAM.Base, p.SRAM.Size, p.SRAM.WaitStates = s.bool(), uint32(s.u64()), uint32(s.u64()), s.u64()
	p.AddrMap.BeatBytesLog2, p.AddrMap.ColBits, p.AddrMap.BankBits, p.AddrMap.RowBits = uint(s.u64()), uint(s.u64()), uint(s.u64()), uint(s.u64())
	d := &p.DDR
	for _, c := range []*uint64{
		(*uint64)(&d.TRCD), (*uint64)(&d.TRP), (*uint64)(&d.TCL), (*uint64)(&d.TWL), (*uint64)(&d.TRAS),
		(*uint64)(&d.TRC), (*uint64)(&d.TWR), (*uint64)(&d.TRRD), (*uint64)(&d.TREFI), (*uint64)(&d.TRFC),
	} {
		*c = s.u64()
	}
	gen := func() GenSpec {
		return GenSpec{
			Kind: s.str(), Name: s.str(), Base: uint32(s.u64()), Beats: int(s.u64()), Count: int(s.u64()),
			Gap: s.u64(), WriteEvery: int(s.u64()), WrapBytes: uint32(s.u64()), StrideBytes: uint32(s.u64()),
			BeatBytes: int(s.u64()), Seed: int64(s.u64()), WindowBytes: uint32(s.u64()), MaxBeats: int(s.u64()),
			WriteFrac: s.float(), MeanGap: int(s.u64()), BurstTxns: int(s.u64()), IdleGap: s.u64(),
			Period: s.u64(), Write: s.bool(),
			Reqs: list(s, func() ReqSpec {
				return ReqSpec{At: s.u64(), Addr: uint32(s.u64()), Write: s.bool(), Beats: int(s.u64())}
			}),
		}
	}
	return Spec{SpecVersion: int(s.u64()), Name: s.str(), Params: p, Masters: list(s, gen), MaxCycles: s.u64()}
}

// FuzzCanonical holds the append encoder to json.Marshal on arbitrary
// Spec values: byte-identical canonical bytes, hash and workload digest,
// or the same error for a non-finite float. Whatever it encodes must
// also read back through the fast reader exactly as encoding/json reads
// it.
func FuzzCanonical(f *testing.F) {
	for _, s := range Scenarios() {
		f.Add([]byte(s.Name))
	}
	rng := rand.New(rand.NewSource(20050307))
	for range 64 {
		seed := make([]byte, 256)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource{b: data}
		s := src.spec()
		checkCanonical(t, s)
		doc, err := json.Marshal(s)
		if err != nil {
			return
		}
		checkReader(t, doc)
	})
}

// checkReader holds the fast reader to encoding/json on doc: where it
// answers, encoding/json decodes doc to a deeply equal value without
// error.
func checkReader(t *testing.T, doc []byte) {
	t.Helper()
	fast, ok := readSpec(doc)
	if !ok {
		return
	}
	slow, err := jsonDecode(doc)
	if err != nil {
		t.Fatalf("fast reader accepts what encoding/json rejects (%v):\n%s", err, doc)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast reader disagrees with encoding/json on\n%s\n fast %#v\n json %#v", doc, fast, slow)
	}
}

// TestCanonicalCoversEveryField sets every field of a Spec, found by
// reflection, to a distinct non-zero value: the encoder must still match
// json.Marshal and the reader must answer, and agree with
// encoding/json, on the result. A field added to Spec, config.Params
// or a type under them fails here until the codec learns it.
func TestCanonicalCoversEveryField(t *testing.T) {
	var s Spec
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		case reflect.String:
			v.SetString("f" + string(rune('a'+n%26)))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(-n))
		case reflect.Uint, reflect.Uint32, reflect.Uint64:
			v.SetUint(uint64(n))
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.25)
		default:
			t.Fatalf("field kind %s has no case here", v.Kind())
		}
	}
	fill(reflect.ValueOf(&s).Elem())
	checkCanonical(t, s)
	doc, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := readSpec(doc); !ok {
		t.Fatalf("fast reader declines a fully populated spec:\n%s", doc)
	}
	checkReader(t, doc)
}

func BenchmarkCanonical(b *testing.B) {
	s, err := ByName("seq/write-heavy")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		benchCanonical, benchErr = s.Canonical()
	}
}

func BenchmarkDigests(b *testing.B) {
	s, err := ByName("seq/write-heavy")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		benchCanonical, benchHash, _, benchErr = s.Digests()
	}
}

var benchCanonical []byte

// TestCanonicalEdgeValues puts every edge string in every string field
// and every edge float in both float fields.
func TestCanonicalEdgeValues(t *testing.T) {
	s := specOf()
	s.Masters = append(s.Masters, GenSpec{Kind: KindRandom, Seed: -3, WindowBytes: 64, MaxBeats: 4, Count: 2,
		Reqs: []ReqSpec{{At: 1, Addr: 2, Write: true, Beats: -4}}})
	for _, str := range edgeStrings {
		for _, f := range edgeFloats {
			c := s.Clone()
			c.Name, c.Params.Masters[0].Name, c.Masters[0].Kind, c.Masters[1].Name = str, str, str, str
			c.Params.Masters[1].BandwidthQuota, c.Masters[2].WriteFrac = f, -f
			checkCanonical(t, c)
		}
	}
}
