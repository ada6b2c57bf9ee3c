package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// referenceDecodeSweepStream is the stream reader DecodeSweepStream
// replaced, kept as its reference: every line is decoded far enough to
// read done, and is the summary exactly when that is true.
func referenceDecodeSweepStream(body io.Reader, onRow func(line []byte) error) (summary SweepSummary, done bool, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if done {
			return summary, done, fmt.Errorf("service: line after the terminal summary: %q", line)
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return summary, false, fmt.Errorf("service: sweep line %q: %w", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &summary); err != nil {
				return summary, false, fmt.Errorf("service: sweep summary %q: %w", line, err)
			}
			done = true
			continue
		}
		if onRow != nil {
			if err := onRow(line); err != nil {
				return summary, false, err
			}
		}
	}
	return summary, done, sc.Err()
}

// streamOutcome is everything a stream reader tells its caller.
type streamOutcome struct {
	rows    []string
	summary SweepSummary
	done    bool
	err     error
}

var errRowAbort = errors.New("onRow abort")

// readStream runs read over stream with an onRow that keeps every line
// and fails on row abortAt (never when abortAt < 0).
func readStream(read func(io.Reader, func([]byte) error) (SweepSummary, bool, error), stream []byte, abortAt int) streamOutcome {
	var out streamOutcome
	out.summary, out.done, out.err = read(bytes.NewReader(stream), func(line []byte) error {
		if len(out.rows) == abortAt {
			return errRowAbort
		}
		out.rows = append(out.rows, string(line))
		return nil
	})
	return out
}

// sameOutcome reports whether two readers agree: the same rows in the
// same order, the same summary and done, and an error from both or
// from neither.
func sameOutcome(a, b streamOutcome) bool {
	if len(a.rows) != len(b.rows) || a.summary != b.summary || a.done != b.done || (a.err == nil) != (b.err == nil) {
		return false
	}
	for i := range a.rows {
		if a.rows[i] != b.rows[i] {
			return false
		}
	}
	return true
}

// streamLine is one line a tier writes — a data row of either shape, an
// error row, a summary — encoded by the row writer or by json.Marshal.
// nil: the drawn line does not encode (its result is not JSON).
func (s *lineSource) streamLine(bodies [][]byte) []byte {
	var line any
	switch s.byte() % 5 {
	case 0:
		line = s.row(bodies)
	case 1:
		line = PlacedRow{SweepRow: s.row(bodies), Shard: int(s.byte()), Failover: s.str(), Stolen: s.str()}
	case 2:
		line = SweepRow{Index: int(s.byte()), Name: s.str(), Hash: s.str(), Error: s.str()}
	case 3:
		line = PlacedRow{SweepRow: SweepRow{Index: int(s.byte()), Name: s.str(), Error: s.str()}, Shard: -1}
	default:
		line = SweepSummary{Done: s.byte()%4 != 0, Rows: int(s.byte()), Errors: int(s.byte())}
	}
	if s.byte()&1 == 0 {
		b, err := json.Marshal(line)
		if err != nil {
			return nil
		}
		return b
	}
	b, err := encodeLine(line)
	if err != nil {
		return nil
	}
	return bytes.TrimSuffix(b, []byte("\n"))
}

// garble returns line kept, or a copy truncated or with one byte
// replaced, dropped or inserted. One edit per line: no single edit
// turns a line either tier writes into a data row with a top-level
// done, the one line the two readers are allowed to read differently.
func (s *lineSource) garble(line []byte) []byte {
	op := s.byte() % 6
	if op < 2 || len(line) == 0 {
		return line
	}
	pos := (int(s.byte())<<8 | int(s.byte())) % len(line)
	out := bytes.Clone(line)
	switch op {
	case 2:
		return out[:pos]
	case 3:
		out[pos] = s.byte()
		return out
	case 4:
		return append(out[:pos], out[pos+1:]...)
	}
	return append(out[:pos], append([]byte{s.byte()}, line[pos:]...)...)
}

// FuzzDecodeSweepStream holds DecodeSweepStream to the reader it
// replaced on streams of lines the tiers' encoders write, each kept,
// truncated or garbled by one byte, in any order and with or without
// a final newline: the same rows handed to onRow, the same summary and
// done, and an error exactly when the reference errs — including an
// onRow that aborts.
func FuzzDecodeSweepStream(f *testing.F) {
	bodies := lineBodies(f)
	rng := rand.New(rand.NewSource(20050307))
	for range 64 {
		seed := make([]byte, 96)
		rng.Read(seed)
		f.Add(seed)
	}
	// A row then the summary; the same with the row cut short, with
	// onRow failing on it, and with the two lines swapped.
	row := []byte{0, 1, 0, 0, 2, 0, 0, 1, 1}
	summary := []byte{4, 1, 1, 0, 0, 0}
	f.Add(slices.Concat([]byte{0xff, 2}, row, []byte{0}, summary, []byte{0}))
	f.Add(slices.Concat([]byte{0xff, 2}, row, []byte{2, 0, 20}, summary, []byte{0}))
	f.Add(slices.Concat([]byte{8, 2}, row, []byte{0}, summary, []byte{0}))
	f.Add(slices.Concat([]byte{0xff, 2}, summary, row, []byte{0, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := lineSource{b: data}
		abortAt := int(src.byte()%16) - 8 // negative: onRow never fails
		var stream []byte
		for n := src.byte() % 8; n > 0; n-- {
			if line := src.streamLine(bodies); line != nil {
				stream = append(append(stream, src.garble(line)...), '\n')
			}
		}
		if src.byte()&1 == 1 {
			stream = bytes.TrimSuffix(stream, []byte("\n"))
		}
		got := readStream(DecodeSweepStream, stream, abortAt)
		want := readStream(referenceDecodeSweepStream, stream, abortAt)
		if !sameOutcome(got, want) {
			t.Fatalf("stream %q (onRow fails at row %d)\n got %d rows %+v done=%v err=%v\nwant %d rows %+v done=%v err=%v",
				stream, abortAt, len(got.rows), got.summary, got.done, got.err, len(want.rows), want.summary, want.done, want.err)
		}
	})
}

func TestDecodeSweepStreamValidatesEveryLine(t *testing.T) {
	row := `{"index":3,"name":"n","hash":"h","params":null,"cache":"hit","result":{"cycles":1}}`
	for _, c := range []struct {
		name   string
		stream string
		rows   int
		done   bool
		err    bool
	}{
		{"rows then summary", row + "\n" + row + "\n" + `{"done":true,"rows":2,"errors":0}` + "\n", 2, true, false},
		{"a row in a form json.Marshal would not write", `{"index":3, "result": {"a" : 1}}` + "\n", 1, false, false},
		{"a row cut short", `{"index":3,"name":"n","result":{"cyc` + "\n", 0, false, true},
		{"a row with trailing bytes", row + `}` + "\n", 0, false, true},
		{"a row with a byte that is not UTF-8", `{"index":3,"name":"` + "\xff" + `"}` + "\n", 1, false, false},
		{"a row after the summary", `{"done":true,"rows":0,"errors":0}` + "\n" + row + "\n", 0, true, true},
		{"a line of another shape", `{"shard":1,"index":3}` + "\n", 1, false, false},
		{"a summary not done", `{"done":false,"rows":0,"errors":0}` + "\n", 1, false, false},
		{"no summary", row, 1, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := readStream(DecodeSweepStream, []byte(c.stream), -1)
			if len(got.rows) != c.rows || got.done != c.done || (got.err != nil) != c.err {
				t.Fatalf("%d rows done=%v err=%v, want %d rows done=%v err=%v", len(got.rows), got.done, got.err, c.rows, c.done, c.err)
			}
			if want := readStream(referenceDecodeSweepStream, []byte(c.stream), -1); !sameOutcome(got, want) {
				t.Fatalf("reference reader disagrees: %+v vs %+v", got, want)
			}
		})
	}
}
