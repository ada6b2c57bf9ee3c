package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

// referenceWalk is Walk as it was before it encoded each variant once:
// labels and slugs rendered per variant, the content hash and the
// dedup key taken from two separate encodings, the second with the
// name cleared. Walk must agree with it point for point.
func referenceWalk(g Grid, fn func(v Variant, err error) error) error {
	total, err := g.Total()
	if err != nil {
		return err
	}
	prefix := g.Name
	if prefix == "" {
		prefix = g.Base.Name
	}

	seen := make(map[string]bool)
	idx := make([]int, len(g.Axes))
	for n := 0; n < total; n++ {
		s := g.Base.Clone()
		labels := make([]string, len(g.Axes))
		slugs := make([]string, 0, len(g.Axes)+1)
		slugs = append(slugs, prefix)
		params := make(map[string]any, len(g.Axes))
		var buildErr error
		for a, ax := range g.Axes {
			v := ax.Values[idx[a]]
			label, slug := v.Label, v.Slug
			if label == "" {
				label = fmt.Sprintf("%v", v.V)
			}
			if slug == "" {
				slug = strings.ReplaceAll(label, "/", "-")
			}
			labels[a] = label
			slugs = append(slugs, slug)
			params[ax.Param] = v.V
			if buildErr == nil {
				if err := Apply(&s, ax.Param, v.V); err != nil {
					buildErr = fmt.Errorf("sweep: axis %q value %v: %w", ax.Param, v.V, err)
				}
			}
		}
		s.Name = strings.Join(slugs, "/")
		variant := Variant{Index: n, Labels: labels, Params: params}
		if buildErr == nil {
			if err := s.Validate(); err != nil {
				buildErr = fmt.Errorf("sweep: variant %s: %w", s.Name, err)
			}
		}
		var hash, workload string
		if buildErr == nil {
			if hash, err = s.Hash(); err != nil {
				buildErr = fmt.Errorf("sweep: variant %s: %w", s.Name, err)
			}
		}
		if buildErr == nil {
			unnamed := s
			unnamed.Name = ""
			if workload, err = unnamed.Hash(); err != nil {
				buildErr = fmt.Errorf("sweep: variant %s: %w", s.Name, err)
			}
		}
		switch {
		case buildErr != nil:
			variant.Spec = s
			if err := fn(variant, buildErr); err != nil {
				return err
			}
		case !seen[workload]:
			seen[workload] = true
			variant.Spec, variant.Hash = s, hash
			if err := fn(variant, nil); err != nil {
				return err
			}
		}
		for a := len(g.Axes) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(g.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
	}
	return nil
}

// walked is one grid point as either walk reports it.
type walked struct {
	v   Variant
	err string
}

func collect(t *testing.T, walk func(func(Variant, error) error) error) []walked {
	t.Helper()
	var out []walked
	if err := walk(func(v Variant, err error) error {
		w := walked{v: v}
		if err != nil {
			w.err = err.Error()
		}
		out = append(out, w)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceGrids are the grids Walk is held to the reference on.
func referenceGrids(t *testing.T) map[string]Grid {
	docs, err := spec.ByName("seq/write-heavy")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Grid{
		"benchmark": benchmarkGrid(t),
		// docs/sweeps.md and docs/api.md, with wire-decoded (float64) values.
		"docs": {Name: "docs/grid", Base: docs, Axes: []Axis{
			{Param: ParamWriteBufferDepth, Values: []Value{{V: 0.0}, {V: 2.0}, {V: 8.0}, {V: 16.0}}},
			{Param: ParamBIEnabled, Values: []Value{{V: true}, {V: false}}},
		}},
		// Two axes that each name the same workload twice: slugs differ,
		// names differ, hashes differ, the workload does not.
		"duplicates": {Base: base3(40), Axes: []Axis{
			{Param: ParamWriteBufferDepth, Values: []Value{{Slug: "a", V: 8}, {Slug: "b", V: 8}, {Slug: "c", V: 4}}},
			{Param: ParamMix, Values: []Value{{V: "seq/read-dominant"}, {Label: "again", V: "seq/read-dominant"}, {V: "burst/rt-mixed"}}},
			{Param: ParamFilters, Values: []Value{{V: "all"}, {V: "rr-only"}, {Label: "every/filter", V: "all"}}},
		}},
		// Values that are legal alone and fail mid-grid: an unappliable
		// bus width, counts whose walks run into the next master's range
		// (below and past the footprint cap), and a name needing escapes.
		"invalid": {Name: `bad "grid" <1>\`, Base: base3(40), Axes: []Axis{
			{Param: ParamBusBytes, Values: []Value{{V: 4}, {V: 3}, {V: 8}}},
			{Param: ParamCount, Values: []Value{{V: 100}, {V: 40000}, {V: 0}, {V: 70000}, {V: 101}}},
		}},
	}
}

func TestWalkMatchesReference(t *testing.T) {
	for name, g := range referenceGrids(t) {
		got := collect(t, g.Walk)
		want := collect(t, func(fn func(Variant, error) error) error { return referenceWalk(g, fn) })
		if len(got) != len(want) {
			t.Fatalf("%s: walk reports %d points, reference %d", name, len(got), len(want))
		}
		survivors, failed := 0, 0
		for i := range got {
			g, w := got[i], want[i]
			if g.err != w.err {
				t.Fatalf("%s: point %d: error %q, reference %q", name, i, g.err, w.err)
			}
			if g.v.Index != w.v.Index || g.v.Hash != w.v.Hash ||
				!reflect.DeepEqual(g.v.Labels, w.v.Labels) || !reflect.DeepEqual(g.v.Params, w.v.Params) ||
				!reflect.DeepEqual(g.v.Spec, w.v.Spec) {
				t.Fatalf("%s: point %d diverges:\n got %+v\nwant %+v", name, i, g.v, w.v)
			}
			if g.err != "" {
				failed++
				continue
			}
			survivors++
			if canonical, err := g.v.Spec.Canonical(); err != nil || !bytes.Equal(g.v.Canonical, canonical) {
				t.Fatalf("%s: point %d: Canonical is not the spec's canonical encoding (%v)", name, i, err)
			}
		}
		total, _ := g.Total()
		t.Logf("%s: %d grid points, %d survivors, %d failed", name, total, survivors, failed)
		switch name {
		case "duplicates":
			if survivors != 2*2*2 {
				t.Errorf("duplicates: %d survivors, want 8", survivors)
			}
		case "invalid":
			if failed == 0 || survivors == 0 {
				t.Errorf("invalid: %d failed and %d survivors, want both", failed, survivors)
			}
		}
	}
}

// chunked runs WalkChunks and flattens what it delivers.
func chunked(ctx context.Context, g Grid, after, size int) (vs []Variant, failed []Failed, sizes []int, distinct int, err error) {
	distinct, err = g.WalkChunks(ctx, after, size, func(c Chunk) error {
		vs = append(vs, c.Variants...)
		failed = append(failed, c.Failed...)
		sizes = append(sizes, len(c.Variants)+len(c.Failed))
		return nil
	})
	return
}

func TestWalkChunksDeliversTheWalk(t *testing.T) {
	for name, g := range referenceGrids(t) {
		want := collect(t, g.Walk)
		for _, after := range []int{-1, 0, 7, 1 << 20} {
			for _, size := range []int{1, 5, 2048} {
				vs, failed, sizes, distinct, err := chunked(context.Background(), g, after, size)
				if err != nil {
					t.Fatal(err)
				}
				wantDistinct := 0
				for _, w := range want {
					switch {
					case w.err == "":
						wantDistinct++
						if w.v.Index > after {
							if len(vs) == 0 || vs[0].Index != w.v.Index || vs[0].Hash != w.v.Hash {
								t.Fatalf("%s after %d size %d: variant %d missing or out of order", name, after, size, w.v.Index)
							}
							vs = vs[1:]
						}
					case w.v.Index > after:
						if len(failed) == 0 || failed[0].Variant.Index != w.v.Index || failed[0].Err.Error() != w.err {
							t.Fatalf("%s after %d size %d: failed point %d missing or out of order", name, after, size, w.v.Index)
						}
						failed = failed[1:]
					}
				}
				if len(vs) != 0 || len(failed) != 0 {
					t.Fatalf("%s after %d size %d: %d variants and %d failures nobody walked", name, after, size, len(vs), len(failed))
				}
				if distinct != wantDistinct {
					t.Fatalf("%s after %d size %d: distinct %d, want %d (the whole walk, not the suffix)", name, after, size, distinct, wantDistinct)
				}
				for i, n := range sizes {
					if n > size || n == 0 || (n < size && i != len(sizes)-1) {
						t.Fatalf("%s after %d size %d: chunk sizes %v", name, after, size, sizes)
					}
				}
			}
		}
	}
	// A grid smaller than one chunk is one chunk.
	if _, _, sizes, distinct, err := chunked(context.Background(), referenceGrids(t)["docs"], -1, 2048); err != nil || distinct != 8 || len(sizes) != 1 || sizes[0] != 8 {
		t.Fatalf("small grid: chunk sizes %v, distinct %d, err %v", sizes, distinct, err)
	}
	// A malformed grid fails before any goroutine starts.
	if _, err := (Grid{Base: base3(40), Axes: []Axis{{Param: ParamCount}}}).WalkChunks(context.Background(), -1, 8, nil); err == nil {
		t.Fatal("grid with an empty axis accepted")
	}
}

// waitForGoroutines waits for the goroutine count to come back to base.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the walk: the walker leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWalkChunksStops(t *testing.T) {
	g := benchmarkGrid(t)
	base := runtime.NumGoroutine()

	// The caller's context ends while the walker is mid-chunk (the
	// consumer sits in fn, the walker is expanding the next chunk).
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := g.WalkChunks(ctx, -1, 64, func(c Chunk) error {
		if calls++; calls == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk returned %v", err)
	}
	if calls > 4 {
		t.Fatalf("fn called %d times, cancelled at the 3rd", calls)
	}
	waitForGoroutines(t, base)

	// fn gives up: its error comes back and the walker is gone.
	stop := errors.New("stop")
	calls = 0
	if _, err := g.WalkChunks(context.Background(), -1, 64, func(Chunk) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("fn's error: got %v after %d calls", err, calls)
	}
	waitForGoroutines(t, base)

	// Cancelled before it starts.
	if _, err := g.WalkChunks(ctx, -1, 64, func(Chunk) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("walk under a dead context returned %v", err)
	}
	waitForGoroutines(t, base)
}
