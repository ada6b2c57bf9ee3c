// Package sweep is the parameter-grid engine: it expands one base
// workload spec plus a list of axis descriptors (write-buffer depth,
// bank interleaving, page policy, generator mix, ...) into the full
// Cartesian product of workload variants, each a complete, hashed
// spec.Spec ready to simulate.
//
// Axes are declarative data, not code: an axis names a platform or
// workload parameter and lists the values to try, so a grid can
// arrive over the wire (the service's POST /sweep), live in a JSON
// file, or be built in Go (cmd/sweep's ablation tables). Variants are
// deduplicated by spec content hash — two axis combinations that
// describe the same workload collapse into one — which keeps
// downstream caches from simulating the same point twice.
package sweep

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/arb"
	"repro/internal/spec"
)

// MaxVariants is the engine's hard bound on one grid's Cartesian
// product. It exists to keep Total arithmetic and bitmap sizes sane,
// not to police callers: the simulation service enforces its own,
// configurable, much lower limit (-max-sweep-variants) before a grid
// ever reaches Walk.
const MaxVariants = 1 << 20

// Params accepted as axis targets, in the order they are documented.
const (
	// ParamWriteBufferDepth sets Params.WriteBufferDepth (int).
	ParamWriteBufferDepth = "write_buffer_depth"
	// ParamPipelining sets Params.Pipelining (bool).
	ParamPipelining = "pipelining"
	// ParamBIEnabled sets Params.BIEnabled (bool).
	ParamBIEnabled = "bi_enabled"
	// ParamClosedPage sets Params.ClosedPage (bool).
	ParamClosedPage = "closed_page"
	// ParamBusBytes sets the bus width (int, power of two in [1,16]):
	// Params.BusBytes, the address map's beat width, and the assumed
	// beat width of every sequential master that declares one.
	ParamBusBytes = "bus_bytes"
	// ParamFilters selects the arbitration filter set (string): "all"
	// (the paper's seven-filter pipeline) or "rr-only" (round-robin
	// with only the structural permission/write-buffer filters).
	ParamFilters = "filters"
	// ParamUrgencyThreshold sets Params.UrgencyThreshold (int).
	ParamUrgencyThreshold = "urgency_threshold"
	// ParamCount sets every master's transaction count (int) — the
	// workload-intensity axis. Script masters have a fixed request
	// list, so a grid over a scripted base rejects this axis.
	ParamCount = "count"
	// ParamMix replaces the whole generator mix (string): the value
	// names a library scenario (spec.ByName) whose master descriptors
	// are grafted onto the base platform. Master counts must match.
	ParamMix = "mix"
	// ParamMaxCycles sets the spec-level run cap (int).
	ParamMaxCycles = "max_cycles"
)

// Value is one setting of an axis. V is the value applied to the
// parameter; Label names it in printed tables and result rows; Slug
// is the spec-name path segment. Empty Label and Slug are derived
// from V.
type Value struct {
	Label string
	Slug  string
	V     any
}

// Axis is one swept dimension: a parameter name and the values to try.
type Axis struct {
	Param  string
	Values []Value
}

// Grid is a full sweep description: a base spec, a name prefix for
// the variants, and the axes whose Cartesian product is explored.
type Grid struct {
	// Name prefixes every variant's spec name ("ablation/wb" +
	// "/depth8"). Empty falls back to the base spec's name.
	Name string
	// Base is the workload every variant starts from.
	Base spec.Spec
	// Axes are the swept dimensions; the last axis varies fastest.
	Axes []Axis
}

// Variant is one expanded grid point.
type Variant struct {
	// Index is the variant's position in the full Cartesian product
	// (row-major expansion order). Deduplication drops later
	// duplicates but never renumbers survivors, so Index always maps
	// back to the same axis-value combination.
	Index int
	// Labels holds one axis label per grid axis, in axis order.
	Labels []string
	// Params maps each axis's parameter name to the applied value.
	Params map[string]any
	// Spec is the complete workload, named Name/slug1/slug2/...
	Spec spec.Spec
	// Hash is the spec's content hash.
	Hash string
	// Canonical is the spec's canonical encoding, the bytes Hash is the
	// SHA-256 of, ready to forward without re-encoding the spec. Read
	// only.
	Canonical []byte
}

// Total validates the grid's axis structure and returns the size of
// its full Cartesian product — the index space Variant.Index lives in
// — without building a single variant. The product is guarded against
// overflow by the MaxVariants bound.
func (g Grid) Total() (int, error) {
	total := 1
	for _, ax := range g.Axes {
		if ax.Param == "" {
			return 0, fmt.Errorf("sweep: axis without a param")
		}
		if len(ax.Values) == 0 {
			return 0, fmt.Errorf("sweep: axis %q has no values", ax.Param)
		}
		if total > MaxVariants/len(ax.Values) {
			return 0, fmt.Errorf("sweep: grid exceeds %d variants", MaxVariants)
		}
		total *= len(ax.Values)
	}
	return total, nil
}

// Walk enumerates the grid lazily in row-major order (first axis
// slowest), holding O(1) variants in memory, and calls fn once per
// grid point that survives deduplication. A point whose spec fails to
// apply, validate or hash is reported as fn(partial, err) — Index,
// Labels and Params set, Spec/Hash not usable — so a caller streaming
// a committed response can turn it into an error row and keep going.
// fn returning a non-nil error aborts the walk and Walk returns it.
//
// Deduplication is on the workload alone: the spec name (which embeds
// the axis slugs and participates in the content hash) is left out of
// the dedup key, so two axis combinations that label the same
// workload differently still collapse into one simulation. The walk
// always starts at index 0 even when the caller only wants a suffix —
// dedup survivors are defined by full-grid history, and skipping a
// prefix would silently renumber them.
func (g Grid) Walk(fn func(v Variant, err error) error) error {
	total, err := g.Total()
	if err != nil {
		return err
	}
	// Render every axis value's label and slug once, not once per
	// variant that uses it.
	labels := make([][]string, len(g.Axes))
	slugs := make([][]string, len(g.Axes))
	for a, ax := range g.Axes {
		labels[a] = make([]string, len(ax.Values))
		slugs[a] = make([]string, len(ax.Values))
		for i, v := range ax.Values {
			label, slug := v.Label, v.Slug
			if label == "" {
				label = fmt.Sprintf("%v", v.V)
			}
			if slug == "" {
				slug = strings.ReplaceAll(label, "/", "-")
			}
			labels[a][i], slugs[a][i] = label, slug
		}
	}
	name := make([]string, len(g.Axes)+1) // prefix, then one slug per axis
	name[0] = g.Name
	if name[0] == "" {
		name[0] = g.Base.Name
	}

	seen := make(map[[sha256.Size]byte]struct{})
	idx := make([]int, len(g.Axes))
	for n := 0; n < total; n++ {
		s := g.Base.Clone()
		variant := Variant{
			Index:  n,
			Labels: make([]string, len(g.Axes)),
			Params: make(map[string]any, len(g.Axes)),
		}
		var buildErr error
		for a, ax := range g.Axes {
			v := ax.Values[idx[a]]
			variant.Labels[a] = labels[a][idx[a]]
			name[a+1] = slugs[a][idx[a]]
			variant.Params[ax.Param] = v.V
			if buildErr == nil {
				if err := Apply(&s, ax.Param, v.V); err != nil {
					buildErr = fmt.Errorf("sweep: axis %q value %v: %w", ax.Param, v.V, err)
				}
			}
		}
		s.Name = strings.Join(name, "/")
		variant.Spec = s
		if buildErr == nil {
			if err := s.Validate(); err != nil {
				buildErr = fmt.Errorf("sweep: variant %s: %w", s.Name, err)
			}
		}
		// One encoding serves the forwarded bytes, the content hash and
		// the dedup key.
		var workload [sha256.Size]byte
		if buildErr == nil {
			if variant.Canonical, variant.Hash, workload, err = s.Digests(); err != nil {
				buildErr = fmt.Errorf("sweep: variant %s: %w", s.Name, err)
			}
		}
		_, dup := seen[workload]
		switch {
		case buildErr != nil:
			if err := fn(variant, buildErr); err != nil {
				return err
			}
		case !dup:
			seen[workload] = struct{}{}
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

// Chunk is one batch of a chunked walk: up to the chunk size of grid
// points in walk order, split into the deduplicated survivors to
// simulate and the points whose spec failed to build.
type Chunk struct {
	// Variants are the surviving grid points.
	Variants []Variant
	// Failed are the points Walk reports with an error.
	Failed []Failed
}

// Failed is one grid point that could not be built: the partial
// variant (Index, Labels, Params and the spec's name are set) and why.
type Failed struct {
	Variant Variant
	Err     error
}

// WalkChunks walks the grid in a goroutine of its own and hands it to
// fn, on the calling goroutine, in chunks of at most size grid points
// — so the walk runs one chunk ahead of fn: while fn resolves a chunk
// the next one is being expanded, and at most two chunks are alive.
// Points with Index <= after are walked (dedup survivors are defined
// by full-grid history) but not delivered. It returns the number of
// deduplicated variants of the whole walk — valid only when err is nil
// — and the first of: the grid's own error, ctx's error once ctx ends,
// or the error fn returned. The walking goroutine has exited by the
// time WalkChunks returns.
func (g Grid) WalkChunks(ctx context.Context, after, size int, fn func(Chunk) error) (distinct int, err error) {
	total, err := g.Total()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chunks := make(chan Chunk)
	var walkErr error
	go func() {
		defer close(chunks)
		var next Chunk
		send := func() error {
			select {
			case chunks <- next:
				next = Chunk{}
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		walkErr = g.Walk(func(v Variant, verr error) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if verr == nil {
				distinct++
			}
			if v.Index <= after {
				return nil
			}
			if verr != nil {
				next.Failed = append(next.Failed, Failed{Variant: v, Err: verr})
			} else {
				if next.Variants == nil {
					next.Variants = make([]Variant, 0, min(size, total-v.Index))
				}
				next.Variants = append(next.Variants, v)
			}
			if len(next.Variants)+len(next.Failed) >= size {
				return send()
			}
			return nil
		})
		if walkErr == nil && len(next.Variants)+len(next.Failed) > 0 {
			walkErr = send()
		}
	}()
	for c := range chunks {
		if err = fn(c); err != nil {
			cancel()
			for range chunks {
				// Unblock the walker; it stops at its next grid point.
			}
			return distinct, err
		}
	}
	return distinct, walkErr
}

// Expand produces the deduplicated variant list: the Cartesian
// product of the axis values applied to the base spec, in row-major
// order (first axis slowest), with later duplicates of an already
// seen content hash dropped. Every variant's spec is validated; the
// first invalid grid point fails the whole expansion. Callers that
// cannot afford the materialized slice (or want per-point error
// recovery) walk the grid instead.
func (g Grid) Expand() ([]Variant, error) {
	var variants []Variant
	err := g.Walk(func(v Variant, err error) error {
		if err != nil {
			return err
		}
		variants = append(variants, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return variants, nil
}

// MustExpand is Expand for static (trusted) grids; it panics on error.
func MustExpand(g Grid) []Variant {
	vs, err := g.Expand()
	if err != nil {
		panic(err)
	}
	return vs
}

// Apply sets one parameter on the spec. The value may carry the
// JSON-decoded representation of its type (float64 for ints), so
// grids decoded off the wire apply without caller-side coercion.
func Apply(s *spec.Spec, param string, v any) error {
	switch param {
	case ParamWriteBufferDepth:
		n, err := asInt(v)
		if err != nil {
			return err
		}
		s.Params.WriteBufferDepth = n
	case ParamPipelining:
		b, err := asBool(v)
		if err != nil {
			return err
		}
		s.Params.Pipelining = b
	case ParamBIEnabled:
		b, err := asBool(v)
		if err != nil {
			return err
		}
		s.Params.BIEnabled = b
	case ParamClosedPage:
		b, err := asBool(v)
		if err != nil {
			return err
		}
		s.Params.ClosedPage = b
	case ParamBusBytes:
		n, err := asInt(v)
		if err != nil {
			return err
		}
		if n < 1 || n > 16 || n&(n-1) != 0 {
			return fmt.Errorf("bus_bytes %d is not a power of two in [1,16]", n)
		}
		s.Params.BusBytes = n
		s.Params.AddrMap.BeatBytesLog2 = uint(bits.TrailingZeros(uint(n)))
		// A sequential generator that declared an assumed beat width
		// tracks the platform width, as the A7 ablation workloads do.
		for i := range s.Masters {
			if s.Masters[i].Kind == spec.KindSequential && s.Masters[i].BeatBytes != 0 {
				s.Masters[i].BeatBytes = n
			}
		}
	case ParamFilters:
		name, ok := v.(string)
		if !ok {
			return fmt.Errorf("filters wants a string, got %T", v)
		}
		switch name {
		case "all":
			s.Params.Filters = arb.AllEnabled()
		case "rr-only":
			f := arb.AllEnabled()
			f.Urgency, f.RealTime, f.Bandwidth, f.BankAffinity = false, false, false, false
			s.Params.Filters = f
		default:
			return fmt.Errorf("unknown filter set %q (want all or rr-only)", name)
		}
	case ParamUrgencyThreshold:
		n, err := asInt(v)
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("urgency_threshold %d negative", n)
		}
		s.Params.UrgencyThreshold = uint64(n)
	case ParamCount:
		n, err := asInt(v)
		if err != nil {
			return err
		}
		for i := range s.Masters {
			if s.Masters[i].Kind == spec.KindScript {
				return fmt.Errorf("count cannot apply to script master %d", i)
			}
			s.Masters[i].Count = n
		}
	case ParamMix:
		name, ok := v.(string)
		if !ok {
			return fmt.Errorf("mix wants a scenario name, got %T", v)
		}
		lib, err := spec.ByName(name)
		if err != nil {
			return err
		}
		if len(lib.Masters) != len(s.Params.Masters) {
			return fmt.Errorf("mix %q has %d masters, platform has %d",
				name, len(lib.Masters), len(s.Params.Masters))
		}
		s.Masters = lib.Clone().Masters
	case ParamMaxCycles:
		n, err := asInt(v)
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("max_cycles %d negative", n)
		}
		s.MaxCycles = uint64(n)
	default:
		return fmt.Errorf("unknown sweep parameter %q", param)
	}
	return nil
}

// asInt coerces a Go int or a JSON number to an int, rejecting
// fractional values instead of silently truncating them.
func asInt(v any) (int, error) {
	switch n := v.(type) {
	case int:
		return n, nil
	case float64:
		if n != math.Trunc(n) || math.Abs(n) > 1<<52 {
			return 0, fmt.Errorf("value %v is not an integer", n)
		}
		return int(n), nil
	}
	return 0, fmt.Errorf("value %v (%T) is not an integer", v, v)
}

// asBool coerces a bool value.
func asBool(v any) (bool, error) {
	if b, ok := v.(bool); ok {
		return b, nil
	}
	return false, fmt.Errorf("value %v (%T) is not a bool", v, v)
}
