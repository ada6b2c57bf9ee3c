package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// checkRunResponse holds the /run body encoder to json.Marshal.
func checkRunResponse(t *testing.T, r RunResponse) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeRunResponse(&r); !bytes.Equal(got, want) {
		t.Fatalf("/run body differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// encodeLine is one line as the row writer writes it, and the error it
// returns.
func encodeLine(line any) ([]byte, error) {
	rec := httptest.NewRecorder()
	err := newRowWriter(rec).Write(line)
	return rec.Body.Bytes(), err
}

// checkLine holds the row writer to json.Encoder: the same bytes, or
// the same error and nothing written.
func checkLine(t *testing.T, line any) {
	t.Helper()
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode(line)
	got, gerr := encodeLine(line)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("line %#v\n got %q (err %v)\nwant %q (err %v)", line, got, gerr, want.Bytes(), werr)
	}
}

// TestRunResponseCoversEveryField sets every field of a RunResponse,
// stats included and found by reflection, to a distinct non-zero value:
// the encoder must still match json.Marshal. A field added to
// RunResponse, stats.Bus, stats.Master or ddr.Stats fails here until
// the encoder learns it.
func TestRunResponseCoversEveryField(t *testing.T) {
	r := RunResponse{Stats: new(stats.Bus)}
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Pointer:
			fill(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
			for _, k := range []string{"<b>", "a", "Z"} {
				e := reflect.New(v.Type().Elem()).Elem()
				fill(e)
				v.SetMapIndex(reflect.ValueOf(k), e)
			}
		case reflect.String:
			v.SetString(fmt.Sprintf("f%d&", n))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(-n))
		case reflect.Uint, reflect.Uint64:
			v.SetUint(uint64(n) << 40)
		default:
			t.Fatalf("field of kind %v: teach this test and the encoder", v.Kind())
		}
	}
	fill(reflect.ValueOf(&r).Elem())
	checkRunResponse(t, r)

	// The shapes a real run can also have: no stats, no masters, no
	// filter counts, an empty map.
	checkRunResponse(t, RunResponse{Name: "x"})
	checkRunResponse(t, RunResponse{Stats: &stats.Bus{}})
	checkRunResponse(t, RunResponse{Stats: &stats.Bus{FilterDecisive: map[string]uint64{}}})
}

// TestRunBodiesOfTheLibraryMatchEncodingJSON encodes a real result of
// every library scenario on both models.
func TestRunBodiesOfTheLibraryMatchEncodingJSON(t *testing.T) {
	for _, s := range spec.Scenarios() {
		wl, err := core.FromSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []core.Model{core.TLM, core.RTL} {
			res := core.Run(wl, model, core.Options{})
			checkRunResponse(t, RunResponse{
				Name: s.Name, Hash: "h", Model: model.String(), Cycles: uint64(res.Cycles),
				Completed: res.Completed, Violations: res.Violations, Stats: res.Stats,
			})
		}
	}
}

// TestEverySweepLineTypeEncodesAsEncodingJSON covers each line type the
// tiers emit — a worker row, a router row with and without its
// placement tags, an error row, the terminal summary — on the inputs
// where an encoder is most likely to drift: HTML characters and invalid
// UTF-8 in strings, floats around both exponent cut-overs and -0, and
// results that encoding/json would compact, escape or refuse. A line
// type the encoder does not know, one embedding SweepRow with its own
// fields, must keep them.
func TestEverySweepLineTypeEncodesAsEncodingJSON(t *testing.T) {
	result := json.RawMessage(`{"name":"seq/x","cycles":12,"completed":true,"stats":{"Hist":[1,2],"FilterDecisive":null}}`)
	params := map[string]any{
		"write_buffer_depth": 4, "pipelining": true, "filters": "rr-only", "count": float64(85),
		"tiny": 9.99e-7, "small": 1e-6, "big": 1e21, "below": 9.99e20, "neg0": math.Copysign(0, -1),
		"<html>&": "a<b>&c", "bad\xffutf8": "caf\xc3\xa9\xe2\x80\xa8",
	}
	row := SweepRow{Index: 7, Name: "grid/<wb>&\xfe", Hash: "abc", Params: params, Cache: "miss", Result: result}
	errRow := SweepRow{Index: 3, Name: "grid/e", Params: params, Error: `bad "value" <x>`}
	lines := []any{
		row,
		errRow,
		SweepRow{Name: "nil params"},
		SweepRow{Params: map[string]any{}},
		PlacedRow{SweepRow: row, Shard: 0},
		PlacedRow{SweepRow: row, Shard: 2, Failover: "1->2", Stolen: "1->2"},
		PlacedRow{SweepRow: errRow, Shard: -1},
		SweepSummary{Done: true, Rows: 4080, Errors: 3},
		SweepSummary{},
		fakeLine{SweepRow: row, Lane: 1, From: 2},
	}
	// Results copied as they are only in json.Marshal's own form; these
	// must be compacted, escaped or refused by encoding/json.
	for _, r := range []string{"{\"a\": 1}", " {}", "[1,2]\n", `{"a":"<b>"}`, `"a&b"`, "\"\xe2\x80\xa9\"", `{"cycles":`, `nul`} {
		lines = append(lines, SweepRow{Index: 1, Result: json.RawMessage(r)}, PlacedRow{SweepRow: SweepRow{Result: json.RawMessage(r)}, Shard: 1})
	}
	// Params values outside the encoder's types go to encoding/json.
	for _, v := range []any{nil, []any{1.5, "x"}, map[string]any{"k": 1}, uint8(3), json.Number("12"), math.NaN(), math.Inf(-1)} {
		lines = append(lines, SweepRow{Params: map[string]any{"a": 1, "v": v}})
	}
	for _, line := range lines {
		checkLine(t, line)
	}

	got, err := encodeLine(fakeLine{SweepRow: row, Lane: 5, From: 6})
	if err != nil || !bytes.Contains(got, []byte(`"lane":5,"from":6}`)) {
		t.Fatalf("a line type embedding SweepRow lost its own fields: %s (err %v)", got, err)
	}
}

// lineSource draws sweep lines from fuzz input.
type lineSource struct{ b []byte }

func (s *lineSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

var lineStrings = []string{
	"", "m0", "miss", "router_hit", "0->1", "<tag>&amp;", "a\xe2\x80\xa8b\xe2\x80\xa9c", "bad\xffutf8\xc3",
	`q"uo\te`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "caf\xc3\xa9 \xe2\x98\x95", "\U0001F600",
}

func (s *lineSource) str() string {
	sel := s.byte()
	if sel&0x80 == 0 {
		return lineStrings[int(sel)%len(lineStrings)]
	}
	n := min(int(sel&0x0f), len(s.b))
	out := string(s.b[:n])
	s.b = s.b[n:]
	return out
}

func (s *lineSource) u64() uint64 {
	switch s.byte() % 3 {
	case 0:
		return uint64(s.byte())
	case 1:
		return 0
	}
	var w [8]byte
	for i := range w {
		w[i] = s.byte()
	}
	return binary.LittleEndian.Uint64(w[:])
}

var lineFloats = []float64{
	1e-7, 9.99e-7, 1e-6, 1e21, 9.99e20, 1e20, 5e-324, math.Copysign(0, -1), 0.1, -2.5,
	math.MaxFloat64, 123456789, math.NaN(), math.Inf(1),
}

func (s *lineSource) value() any {
	switch sel := s.byte(); sel % 7 {
	case 0:
		return sel&0x80 != 0
	case 1:
		return s.str()
	case 2:
		return int(int64(s.u64()))
	case 3:
		return lineFloats[int(sel/7)%len(lineFloats)]
	case 4:
		return math.Float64frombits(s.u64())
	case 5:
		return float64(int64(s.u64())) / 8
	}
	return nil
}

// result is a body from the library's real results, or raw fuzz bytes.
func (s *lineSource) result(bodies [][]byte) json.RawMessage {
	switch sel := s.byte(); sel % 4 {
	case 0:
		return nil
	case 1:
		return bodies[int(sel/4)%len(bodies)]
	}
	n := min(int(s.byte()), len(s.b))
	out := s.b[:n:n]
	s.b = s.b[n:]
	return out
}

func (s *lineSource) row(bodies [][]byte) SweepRow {
	r := SweepRow{Index: int(int64(s.u64())), Name: s.str(), Hash: s.str(), Cache: s.str(), Error: s.str()}
	if n := int(s.byte() % 5); n > 0 {
		r.Params = make(map[string]any, n)
		for range n {
			r.Params[s.str()] = s.value()
		}
	}
	r.Result = s.result(bodies)
	return r
}

// FuzzSweepLine holds the row writer to json.Encoder on every line type
// a tier emits and on one it does not know: byte-identical lines, or
// the same error with nothing written.
func FuzzSweepLine(f *testing.F) {
	bodies := [][]byte{[]byte(`{"a":1}`), []byte(`{"name":"x","stats":null}`)}
	for i, s := range spec.Scenarios() {
		wl, err := core.FromSpec(s)
		if err != nil {
			f.Fatal(err)
		}
		res := core.Run(wl, core.TLM, core.Options{})
		bodies = append(bodies, encodeRunResponse(&RunResponse{Name: s.Name, Stats: res.Stats}))
		f.Add([]byte{byte(i), 1, byte(4 * i)})
	}
	rng := rand.New(rand.NewSource(20050307))
	for range 64 {
		seed := make([]byte, 128)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := lineSource{b: data}
		var line any
		switch src.byte() % 4 {
		case 0:
			line = src.row(bodies)
		case 1:
			line = PlacedRow{SweepRow: src.row(bodies), Shard: int(int64(src.u64())), Failover: src.str(), Stolen: src.str()}
		case 2:
			line = SweepSummary{Done: src.byte()&1 == 1, Rows: int(int64(src.u64())), Errors: int(int64(src.u64()))}
		default:
			line = fakeLine{SweepRow: src.row(bodies), Lane: int(src.byte()), From: int(src.byte())}
		}
		checkLine(t, line)
	})
}

// FuzzRunResponse holds the /run body encoder to json.Marshal on
// arbitrary results.
func FuzzRunResponse(f *testing.F) {
	rng := rand.New(rand.NewSource(20050307))
	for range 64 {
		seed := make([]byte, 256)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := lineSource{b: data}
		r := RunResponse{Name: src.str(), Hash: src.str(), Model: src.str(), Cycles: src.u64(), Completed: src.byte()&1 == 1, Violations: src.u64()}
		if src.byte()&3 != 0 {
			s := &stats.Bus{Cycles: sim.Cycle(src.u64()), BusyBeats: src.u64(), WBPeak: int(int64(src.u64()))}
			if n := int(src.byte() % 4); n > 0 {
				s.Masters = make([]stats.Master, n)
				for i := range s.Masters {
					m := &s.Masters[i]
					m.Name, m.Txns, m.Errors = src.str(), src.u64(), src.u64()
					for j := range m.Hist {
						m.Hist[j] = src.u64()
					}
				}
			}
			s.DDR.RowHits = src.u64()
			if n := int(src.byte() % 5); n > 0 {
				s.FilterDecisive = make(map[string]uint64, n)
				for range n {
					s.FilterDecisive[src.str()] = src.u64()
				}
			}
			r.Stats = s
		}
		checkRunResponse(t, r)
	})
}
