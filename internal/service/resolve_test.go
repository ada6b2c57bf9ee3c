package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/spec"
)

// referenceResolve is the definition ResolveRunRequest is held to:
// encoding/json decodes the body exactly as before the fast reader
// existed, and nothing but whitespace may follow the document.
func referenceResolve(body []byte, byName map[string]spec.Spec) (RunRequest, spec.Spec, error) {
	var req RunRequest
	dec := json.NewDecoder(io.LimitReader(bytes.NewReader(body), MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, spec.Spec{}, fmt.Errorf("parsing request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, spec.Spec{}, errors.New("parsing request: trailing data after document")
	}
	switch {
	case req.Spec != nil && req.Scenario != "":
		return req, spec.Spec{}, errors.New("request has both spec and scenario; send one")
	case req.Spec != nil:
		return req, *req.Spec, nil
	case req.Scenario != "":
		found, ok := byName[req.Scenario]
		if !ok {
			return req, spec.Spec{}, fmt.Errorf("unknown scenario %q", req.Scenario)
		}
		return req, found, nil
	}
	return req, spec.Spec{}, errors.New("request needs a spec or a scenario name")
}

// libraryBodies returns every library scenario's /run body, compact
// and indented: the shape the fast reader exists for.
func libraryBodies(t testing.TB) [][]byte {
	var out [][]byte
	for _, s := range spec.Scenarios() {
		req := RunRequest{Spec: &s, Model: "tl"}
		compact, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(req, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, compact, indented)
	}
	return out
}

// declineTemplate is a spec body with one field of every integer width,
// for the literal edits below.
const declineTemplate = `{"spec":{"version":1,"name":"t","params":{"bus_bytes":4,` +
	`"masters":[{"name":"a","real_time":false}],"addr_map":{"BeatBytesLog2":2,"ColBits":8,"BankBits":2,"RowBits":13}},` +
	`"masters":[{"kind":"random","seed":5,"base":16,"count":3,"gap":1,"write_frac":0.5}]},"model":"tl"}`

// declineCases are bodies outside the fast reader's shape, one or more
// per class. encoding/json accepts some of them and rejects others;
// either way the reader must decline and leave the answer to it.
func declineCases() []struct{ name, body string } {
	edit := func(from, to string) string {
		if !strings.Contains(declineTemplate, from) {
			panic("template has no " + from)
		}
		return strings.Replace(declineTemplate, from, to, 1)
	}
	return []struct{ name, body string }{
		{"case-folded keys", `{"Scenario":"seq/read-dominant","MODEL":"tl"}`},
		{"case-folded nested key", edit(`"version":1`, `"Version":1`)},
		{"duplicate key", `{"scenario":"nope","scenario":"seq/read-dominant"}`},
		{"duplicate spec", edit(`,"model":"tl"}`, `,"spec":{"name":"second"},"model":"tl"}`)},
		{"nested duplicate", edit(`"bus_bytes":4,`, `"bus_bytes":4,"bus_bytes":8,`)},
		{"duplicate params", edit(`"params":{`, `"params":{"write_buffer_depth":3},"params":{`)},
		{"null spec", `{"spec":null,"scenario":"seq/read-dominant"}`},
		{"null string", `{"scenario":null}`},
		{"null nested", edit(`"masters":[{"kind"`, `"max_cycles":null,"masters":[{"kind"`)},
		{"escaped value", `{"scenario":"seq\/read-dominant"}`},
		{"escaped key", `{"scen\u0061rio":"seq/read-dominant"}`},
		{"escaped name", edit(`"name":"t"`, `"name":"t\n"`)},
		{"non-ASCII name", edit(`"name":"t"`, "\"name\":\"t\xc3\xa9\"")},
		{"invalid UTF-8", edit(`"name":"t"`, "\"name\":\"t\xff\"")},
		{"non-ASCII key", "{\"sc\xc3\xa9nario\":\"seq/read-dominant\"}"},
		{"exponent in int", edit(`"count":3`, `"count":1e2`)},
		{"fraction in int", edit(`"version":1`, `"version":1.0`)},
		{"minus zero in int", edit(`"count":3`, `"count":-0`)},
		{"minus zero in uint", edit(`"gap":1`, `"gap":-0`)},
		{"negative uint", edit(`"base":16`, `"base":-1`)},
		{"int overflow", edit(`"count":3`, `"count":9223372036854775808`)},
		{"int underflow", edit(`"bus_bytes":4`, `"bus_bytes":-9223372036854775809`)},
		{"int64 overflow", edit(`"seed":5`, `"seed":9223372036854775808`)},
		{"uint32 overflow", edit(`"base":16`, `"base":4294967296`)},
		{"uint64 overflow", edit(`"gap":1`, `"gap":18446744073709551616`)},
		{"uint overflow", edit(`"RowBits":13`, `"RowBits":18446744073709551616`)},
		{"float out of range", edit(`"write_frac":0.5`, `"write_frac":1e400`)},
		{"string for int", edit(`"count":3`, `"count":"3"`)},
		{"unknown key", edit(`"model":"tl"`, `"modle":"tl"`)},
		{"trailing garbage", `{"scenario":"seq/read-dominant"} garbage`},
		{"trailing document", `{"scenario":"seq/read-dominant"}{"scenario":"nope"}`},
		{"trailing after spec", declineTemplate + "]"},
		{"not an object", `["seq/read-dominant"]`},
		{"empty body", ``},
		{"truncated", declineTemplate[:len(declineTemplate)/2]},
		{"leading zero", edit(`"count":3`, `"count":03`)},
		{"bare word for bool", edit(`"real_time":false`, `"real_time":fals`)},
		{"control byte in string", "{\"scenario\":\"seq/read\x01dominant\"}"},
		{"object for string", `{"model":{"tl":true}}`},
		{"array for struct", edit(`"addr_map":{`, `"addr_map":[],"x":{`)},
		{"case-folded filter name", edit(`"bus_bytes":4,`, `"bus_bytes":4,"filters":{"permission":true},`)},
	}
}

// answerCases are bodies at the edges of the shape that the fast reader
// must answer.
func answerCases() []string {
	return []string{
		declineTemplate,
		"\t\r\n " + declineTemplate + " \n\t\r",
		strings.Replace(declineTemplate, `"seed":5`, `"seed":-9223372036854775808`, 1),
		strings.Replace(declineTemplate, `"base":16`, `"base":4294967295`, 1),
		strings.Replace(declineTemplate, `"gap":1`, `"gap":18446744073709551615`, 1),
		strings.Replace(declineTemplate, `"write_frac":0.5`, `"write_frac":-1.5E-7`, 1),
		strings.Replace(declineTemplate, `"masters":[{"name":"a","real_time":false}]`, `"masters":[]`, 1),
		`{"spec":{},"model":"rtl"}`,
		`{"scenario":"seq/read-dominant"}`,
		`{"scenario":"seq/read-dominant","model":"tl"} `,
		`{"scenario":"seq/read-dominant","spec":{"version":1}}`,
		`{"scenario":"nope"}`,
		`{}`,
		"{\"model\":\"tl\x7f\"}",
	}
}

// FuzzResolveRunRequest holds ResolveRunRequest — the fast reader, and
// encoding/json where it declines — to referenceResolve: for every body
// the decoded request, the resolved spec and the error text must equal
// the reference's.
func FuzzResolveRunRequest(f *testing.F) {
	for _, body := range libraryBodies(f) {
		f.Add(body)
	}
	for _, c := range declineCases() {
		f.Add([]byte(c.body))
	}
	for _, body := range answerCases() {
		f.Add([]byte(body))
	}
	_, byName := ScenarioLibrary()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, sp, err := ResolveRunRequest(body, byName)
		wantReq, wantSp, wantErr := referenceResolve(body, byName)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v\nbody %q", err, wantErr, body)
		}
		if !reflect.DeepEqual(req, wantReq) || !reflect.DeepEqual(sp, wantSp) {
			t.Fatalf("decoded differently from the reference:\n got %#v %#v\nwant %#v %#v\nbody %q", req, sp, wantReq, wantSp, body)
		}
	})
}

// TestFastReaderDeclinesOutsideItsShape checks which half answered:
// every decline class goes to encoding/json, and our own encoders'
// bodies never do.
func TestFastReaderDeclinesOutsideItsShape(t *testing.T) {
	for _, c := range declineCases() {
		if _, ok := spec.ReadRunBody([]byte(c.body)); ok {
			t.Errorf("%s: the fast reader answered %q", c.name, c.body)
		}
	}
	answer := libraryBodies(t)
	for _, body := range answerCases() {
		answer = append(answer, []byte(body))
	}
	for _, body := range answer {
		if _, ok := spec.ReadRunBody(body); !ok {
			t.Errorf("the fast reader declined %q", body)
		}
	}
}

// TestRunRejectsTrailingData: a /run body is one document. Trailing
// whitespace is fine; anything else is a 400 in spec.Decode's words,
// not a silently ignored second request.
func TestRunRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, c := range []struct {
		body   string
		status int
	}{
		{`{"scenario":"seq/read-dominant"} garbage`, http.StatusBadRequest},
		{`{"scenario":"seq/read-dominant"}{"scenario":"nope"}`, http.StatusBadRequest},
		{`{"Scenario":"seq/read-dominant"} {}`, http.StatusBadRequest},
		{"{\"scenario\":\"seq/read-dominant\"} \n\t\r\n", http.StatusOK},
	} {
		status, body := postRaw(t, ts.URL+"/run", []byte(c.body), nil)
		if status != c.status {
			t.Errorf("%q: status %d, want %d: %s", c.body, status, c.status, body)
		}
		if c.status == http.StatusBadRequest && !strings.Contains(string(body), `"parsing request: trailing data after document"`) {
			t.Errorf("%q: error body %s", c.body, body)
		}
	}
}

// TestResolveAndHashAllocationCeiling bounds what serving pays per
// request before its cache probe: decoding a library scenario's /run
// body and hashing the spec (37 allocations with encoding/json for
// both; 9 with the fast reader and the append encoder).
func TestResolveAndHashAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, err := spec.ByName("seq/write-heavy")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(RunRequest{Spec: &s, Model: "tl"})
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 11
	allocs := testing.AllocsPerRun(100, func() {
		_, sp, err := ResolveRunRequest(body, nil)
		if err == nil {
			_, err = sp.Hash()
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode + hash of a %d-byte /run body: %v allocations", len(body), allocs)
	if allocs > ceiling {
		t.Fatalf("decode + hash allocates %v times, ceiling %d", allocs, ceiling)
	}
}

func BenchmarkResolveRunRequest(b *testing.B) {
	s, err := spec.ByName("seq/write-heavy")
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(RunRequest{Spec: &s, Model: "tl"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := ResolveRunRequest(body, nil); err != nil {
			b.Fatal(err)
		}
	}
}
