package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestAppendersMatchEncodingJSON checks the string and float appenders
// on the inputs where they can drift from json.Marshal.
func TestAppendersMatchEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "m0", "<tag>&amp;", "a\xe2\x80\xa8b\xe2\x80\xa9c", "bad\xffutf8\xc3", `q"uo\te`,
		"ctl\x00\x01\b\f\n\r\t\x1f\x7f", "caf\xc3\xa9 \xe2\x98\x95", "\xed\xa0\x80", "\U0001F600",
	} {
		want, _ := json.Marshal(s)
		if got := AppendQuoted(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendQuoted(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e-6, 1e20, 9.99e20, 1e21, -1e21, 5e-324,
		0.1, -2.5, 123456789, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	} {
		want, _ := json.Marshal(f)
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%g) = %s, json.Marshal %s", f, got, want)
		}
	}
}

// marshalForm reports whether json.Marshal writes raw, held in a
// json.RawMessage, as exactly raw: the definition Verbatim is held to.
func marshalForm(raw []byte) bool {
	out, err := json.Marshal(json.RawMessage(raw))
	return err == nil && bytes.Equal(out, raw)
}

func verbatimSeeds() []string {
	return []string{
		`{}`, `[]`, `""`, `0`, `-0`, `1.5e+10`, `-12.5E-3`, `true`, `false`, `null`,
		`{"name":"seq/x","cycles":12,"completed":true,"stats":{"Hist":[1,2],"FilterDecisive":null}}`,
		`{"a":"é\n\"\\\/"}`, "\"caf\xc3\xa9\"", "\"bad\xff\"",
		// json.Marshal changes or refuses each of these.
		`{"a": 1}`, ` {}`, "[1,2]\n", `{"a":"<b>"}`, `"a&b"`, "\"\xe2\x80\xa8\"", `{"a":`, `nul`,
		`01`, `1.`, `.5`, `1e`, `-`, `"\x"`, `"\u12g4"`, "\"\x01\"", `[1,]`, `{"a":1,}`, `{"a"}`,
		`[1 ,2]`, `truex`, `"`, ``, `{}{}`, `[[[[]]]]`,
	}
}

// TestVerbatimAgreesWithEncodingJSON checks the seeds and a nesting
// past the depth bound, which Verbatim declines.
func TestVerbatimAgreesWithEncodingJSON(t *testing.T) {
	for _, raw := range verbatimSeeds() {
		if got, want := Verbatim([]byte(raw)), marshalForm([]byte(raw)); got != want {
			t.Errorf("Verbatim(%q) = %v, json.Marshal keeps it as is: %v", raw, got, want)
		}
	}
	deep := []byte(strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1))
	if Verbatim(deep) || !marshalForm(deep) {
		t.Errorf("a document nested %d deep must be declined", maxDepth+1)
	}
	if deep := deep[1 : len(deep)-1]; !Verbatim(deep) {
		t.Errorf("a document nested %d deep must be accepted", maxDepth)
	}
}

// FuzzVerbatim holds Verbatim to encoding/json on arbitrary bytes: it
// answers true exactly when json.Marshal would write the bytes of a
// json.RawMessage unchanged, nesting past maxDepth aside.
func FuzzVerbatim(f *testing.F) {
	for _, raw := range verbatimSeeds() {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, want := Verbatim(raw), marshalForm(raw)
		if got == want {
			return
		}
		if !got && bytes.Count(raw, []byte("["))+bytes.Count(raw, []byte("{")) > maxDepth {
			return // possibly declined for depth alone
		}
		t.Fatalf("Verbatim(%q) = %v, json.Marshal keeps it as is: %v", raw, got, want)
	})
}
