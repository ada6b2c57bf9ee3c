package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/spec"
)

// checkPointsMatchWalk holds Point to Walk on g: every point Walk
// reports, survivor or failure, is what Point builds at its index,
// field for field and error for error.
func checkPointsMatchWalk(t *testing.T, name string, g Grid) {
	t.Helper()
	err := g.Walk(func(v Variant, werr error) error {
		p, perr := g.Point(v.Index)
		if fmt.Sprint(perr) != fmt.Sprint(werr) {
			return fmt.Errorf("%s: point %d: Point error %v, Walk error %v", name, v.Index, perr, werr)
		}
		if !reflect.DeepEqual(p, v) {
			return fmt.Errorf("%s: point %d: Point differs from Walk:\npoint %+v\n walk %+v", name, v.Index, p, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPointMatchesWalk(t *testing.T) {
	for name, g := range referenceGrids(t) {
		checkPointsMatchWalk(t, name, g)
		total, _ := g.Total()
		for _, n := range []int{-1, total} {
			if _, err := g.Point(n); err == nil {
				t.Fatalf("%s: Point(%d) outside a grid of %d accepted", name, n, total)
			}
		}
	}
	// Point builds a point Walk drops as a duplicate.
	g := referenceGrids(t)["duplicates"]
	if v, err := g.Point(1); err != nil || v.Hash == "" {
		t.Fatalf("duplicate point 1: %v (hash %q)", err, v.Hash)
	}
}

// listOf is what a complete walk of g records: its survivors' indices
// and their hashes, raw, in walk order.
func listOf(t testing.TB, g Grid) (*Bitset, []byte, []Variant) {
	t.Helper()
	total, err := g.Total()
	if err != nil {
		t.Fatal(err)
	}
	done := NewBitset(total)
	var hashes []byte
	var survivors []Variant
	if err := g.Walk(func(v Variant, err error) error {
		if err == nil {
			done.Set(v.Index)
			hashes, _ = hex.AppendDecode(hashes, []byte(v.Hash))
			survivors = append(survivors, v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return done, hashes, survivors
}

// replayed runs Replay.Chunks over the whole list and flattens it.
func replayed(t testing.TB, r *Replay, after, size int) (vs []Variant, last int) {
	t.Helper()
	last, err := r.Chunks(context.Background(), after, size, func(c Chunk) error {
		if len(c.Failed) != 0 || len(c.Variants) == 0 || len(c.Variants) > size {
			return fmt.Errorf("chunk of %d variants and %d failures (size %d)", len(c.Variants), len(c.Failed), size)
		}
		vs = append(vs, c.Variants...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vs, last
}

// checkReplayNamesTheWalk holds a Replay of g's own list to Walk:
// the same survivors in the same order, with Walk's Index, name,
// Params, Labels and Hash and no spec built, each of which Full
// builds into exactly Walk's variant.
func checkReplayNamesTheWalk(t *testing.T, name string, g Grid) {
	t.Helper()
	done, hashes, survivors := listOf(t, g)
	for _, after := range []int{-1, 0, 7} {
		for _, size := range []int{1, 5, 512} {
			r, err := g.Replay(done, hashes)
			if err != nil {
				t.Fatal(err)
			}
			vs, _ := replayed(t, r, after, size)
			want := survivors
			for len(want) > 0 && want[0].Index <= after {
				want = want[1:]
			}
			if len(vs) != len(want) {
				t.Fatalf("%s after %d size %d: replay names %d variants, walk %d", name, after, size, len(vs), len(want))
			}
			for i, v := range vs {
				w := want[i]
				if v.Index != w.Index || v.Spec.Name != w.Spec.Name || v.Hash != w.Hash ||
					!reflect.DeepEqual(v.Params, w.Params) || !reflect.DeepEqual(v.Labels, w.Labels) {
					t.Fatalf("%s: replayed %d diverges:\n got %+v\nwant %+v", name, w.Index, v, w)
				}
				if v.Canonical != nil || v.Spec.Masters != nil {
					t.Fatalf("%s: replayed %d carries a built spec", name, w.Index)
				}
				full, err := v.Full()
				if err != nil || !reflect.DeepEqual(full, w) {
					t.Fatalf("%s: Full of replayed %d: %v\n got %+v\nwant %+v", name, w.Index, err, full, w)
				}
			}
			if r.Wrong() {
				t.Fatalf("%s: the walk's own list was found wrong", name)
			}
			if got := r.Hashes(); string(got) != string(hashes) {
				t.Fatalf("%s: a right list changed", name)
			}
		}
	}
}

func TestReplayNamesTheWalk(t *testing.T) {
	for name, g := range referenceGrids(t) {
		checkReplayNamesTheWalk(t, name, g)
	}
}

func TestReplayRejectsAListOfAnotherShape(t *testing.T) {
	g := referenceGrids(t)["docs"]
	done, hashes, _ := listOf(t, g)
	if _, err := g.Replay(NewBitset(done.Len()+1), hashes); err == nil {
		t.Fatal("a done set of another grid size accepted")
	}
	if _, err := g.Replay(done, hashes[:len(hashes)-1]); err == nil {
		t.Fatal("a list one byte short accepted")
	}
}

// TestReplayCatchesAWrongList tampers with one listed hash at a time:
// at a sampled position Chunks stops before handing out its chunk; at
// an unsampled one the chunk goes out, and the variant's rebuild on a
// miss (Full) finds it, returns the right variant and stops the replay
// after that chunk. Either way the corrected list differs from the
// stored one.
func TestReplayCatchesAWrongList(t *testing.T) {
	g := benchmarkGrid(t)
	done, hashes, survivors := listOf(t, g)
	const size = 512
	for _, tc := range []struct {
		name    string
		pos     int  // listed position tampered with
		sampled bool // the sampled check sees it
	}{
		{"first of a chunk", 2 * size, true},
		{"every 64th", 2*size + 3*SampleEvery, true},
		{"unsampled", 2*size + 3*SampleEvery + 1, false},
	} {
		bad := append([]byte(nil), hashes...)
		bad[sha256.Size*tc.pos] ^= 0xff
		r, err := g.Replay(done, bad)
		if err != nil {
			t.Fatal(err)
		}
		var got []Variant
		last, err := r.Chunks(context.Background(), -1, size, func(c Chunk) error {
			for _, v := range c.Variants {
				if v.Hash == survivors[v.pos].Hash {
					got = append(got, v)
					continue
				}
				// The listed hash misses every cache: the tier builds it.
				full, err := v.Full()
				if err != nil || !reflect.DeepEqual(full, survivors[v.pos]) {
					return fmt.Errorf("rebuild of %d: %v", v.Index, err)
				}
				got = append(got, full)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !r.Wrong() {
			t.Fatalf("%s: tampered list not caught", tc.name)
		}
		// The replay stops at the chunk that holds the bad entry — before
		// it when sampled, after it otherwise.
		stop := 2 * size
		if !tc.sampled {
			stop = 3 * size
		}
		if len(got) != stop || last != survivors[stop-1].Index {
			t.Fatalf("%s: replay handed out %d variants up to index %d, want %d up to %d", tc.name, len(got), last, stop, survivors[stop-1].Index)
		}
		for i, v := range got {
			if v.Index != survivors[i].Index || v.Hash != survivors[i].Hash {
				t.Fatalf("%s: variant %d is %d/%s, want %d/%s", tc.name, i, v.Index, v.Hash, survivors[i].Index, survivors[i].Hash)
			}
		}
		if fixed := r.Hashes(); string(fixed) != string(hashes) || string(fixed) == string(bad) {
			t.Fatalf("%s: the corrected list is not the walk's", tc.name)
		}
	}
}

func TestReplayStopsWhenCtxEnds(t *testing.T) {
	g := referenceGrids(t)["docs"]
	done, hashes, _ := listOf(t, g)
	r, err := g.Replay(done, hashes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stop := errors.New("stop")
	chunks := 0
	if _, err := r.Chunks(ctx, -1, 2, func(Chunk) error {
		if chunks++; chunks == 2 {
			return stop
		}
		return nil
	}); err != stop || chunks != 2 {
		t.Fatalf("fn's error: %v after %d chunks", err, chunks)
	}
	cancel()
	if _, err := r.Chunks(ctx, -1, 2, func(Chunk) error { return nil }); err != context.Canceled {
		t.Fatalf("ended ctx: %v", err)
	}
}

// fuzzParams are the ten axis targets with values that apply, values
// that fail to apply, and combinations that fail to validate.
var fuzzParams = []struct {
	param  string
	values []any
}{
	{ParamWriteBufferDepth, []any{0, 1, 2, 4, 8, 16, 2.0, -1}},
	{ParamPipelining, []any{true, false}},
	{ParamBIEnabled, []any{true, false}},
	{ParamClosedPage, []any{true, false}},
	{ParamBusBytes, []any{4, 8, 2, 16, 1, 3}},
	{ParamFilters, []any{"all", "rr-only", "all"}},
	{ParamUrgencyThreshold, []any{0, 4, 16, 64}},
	{ParamCount, []any{1, 20, 40, 40.0, 20000, 70000}},
	{ParamMix, []any{"seq/read-dominant", "burst/rt-mixed", "seq/write-heavy"}},
	{ParamMaxCycles, []any{0, 1000, -1}},
}

// fuzzGrid decodes a small grid over the ten params from data: per
// axis one byte picks the param and one a subset of its values.
func fuzzGrid(data []byte) Grid {
	g := Grid{Name: "fuzz", Base: base3(40)}
	for len(data) >= 2 && len(g.Axes) < 4 {
		p := fuzzParams[int(data[0])%len(fuzzParams)]
		var values []Value
		for i, v := range p.values {
			if data[1]&(1<<i) != 0 {
				values = append(values, Value{V: v})
			}
		}
		if len(values) == 0 {
			values = append(values, Value{V: p.values[0]})
		}
		g.Axes = append(g.Axes, Axis{Param: p.param, Values: values})
		data = data[2:]
	}
	return g
}

func FuzzGridPoint(f *testing.F) {
	f.Add([]byte{0, 0x3f, 7, 0x3f})
	f.Add([]byte{4, 0x3f, 8, 0x07})
	f.Add([]byte{5, 0x07, 0, 0x05, 9, 0x07})
	f.Add([]byte{1, 3, 2, 3, 3, 3, 6, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGrid(data)
		if total, err := g.Total(); err != nil || total > 256 {
			t.Skip()
		}
		checkPointsMatchWalk(t, "fuzz", g)
		checkReplayNamesTheWalk(t, "fuzz", g)
	})
}

func TestFuzzParamsCoverEveryParam(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range fuzzParams {
		seen[p.param] = true
		sp := spec.SaturatingSpec(8, 40)
		if err := Apply(&sp, p.param, p.values[0]); err != nil {
			t.Fatalf("%s: %v", p.param, err)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("fuzz grids cover %d params, want all ten", len(seen))
	}
}
