// Package spec defines the declarative workload specification: a
// JSON-serializable description of one experiment — platform
// parameters plus one traffic-generator descriptor per master — that
// can be stored, transmitted, hashed and compiled back into the
// generator set that drives both bus models.
//
// Because every simulation in this repository is bit-reproducible
// (fixed seeds, deterministic kernels), a spec fully determines its
// result: two specs with the same content hash produce the same cycle
// counts, beat for beat. That makes the hash a correct cache key,
// which is exactly how the simulation service (internal/service) uses
// it.
//
// Canonical form: a spec's canonical encoding is the compact JSON
// rendering of its decoded Go value, whose struct fields marshal in a
// fixed order with defaulted fields omitted. Encoding is therefore
// stable under decode→encode round trips, and the content hash
// (SHA-256 of the canonical bytes) is independent of the whitespace,
// key order or trailing data of the submitted document.
package spec

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Version is the current spec schema version. Decoders reject other
// versions so cached results can never alias across schema changes.
const Version = 1

// Generator kinds accepted in a GenSpec.
const (
	KindSequential = "sequential"
	KindRandom     = "random"
	KindBursty     = "bursty"
	KindStream     = "stream"
	KindScript     = "script"
)

// MaxBurstBeats bounds the per-transaction burst length a spec may
// request: AHB bursts top out at 16 beats (amba.ValidateBurst flags
// longer ones as protocol violations, so a longer "valid" spec would
// simulate to a violation-riddled result).
const MaxBurstBeats = 16

// MaxCount bounds the per-master transaction count and script length.
// Specs reach the simulators through shared services; an unbounded
// count would let one request pin a worker for arbitrary time, which
// turns the service's bounded queue into a denial-of-service lever.
const MaxCount = 1 << 24

// MaxRunCycles bounds the spec-level cycle cap for the same reason.
const MaxRunCycles = 1 << 32

// ReqSpec is one scripted transaction (KindScript only).
type ReqSpec struct {
	// At is the absolute issue floor in cycles.
	At uint64 `json:"at,omitempty"`
	// Addr is the first-beat address.
	Addr uint32 `json:"addr"`
	// Write is the direction.
	Write bool `json:"write,omitempty"`
	// Beats is the burst length.
	Beats int `json:"beats"`
}

// GenSpec describes one master's traffic generator. Kind selects the
// generator type; the remaining fields mirror the corresponding
// internal/traffic generator. Validation rejects fields set on a kind
// that does not consume them: a stray field would change the content
// hash without changing the workload.
type GenSpec struct {
	// Kind is the generator type: sequential, random, bursty, stream
	// or script.
	Kind string `json:"kind"`
	// Name optionally overrides the generator's report label.
	Name string `json:"name,omitempty"`
	// Base is the starting address (all kinds except script).
	Base uint32 `json:"base,omitempty"`
	// Beats is the per-transaction burst length (sequential, bursty,
	// stream).
	Beats int `json:"beats,omitempty"`
	// Count is the number of transactions (all kinds except script).
	Count int `json:"count,omitempty"`
	// Gap is the idle time between transactions (sequential).
	Gap uint64 `json:"gap,omitempty"`
	// WriteEvery makes every n-th transaction a write (sequential).
	WriteEvery int `json:"write_every,omitempty"`
	// WrapBytes wraps the address walk (sequential, stream).
	WrapBytes uint32 `json:"wrap_bytes,omitempty"`
	// StrideBytes overrides the inter-transaction step (sequential).
	StrideBytes uint32 `json:"stride_bytes,omitempty"`
	// BeatBytes is the assumed bus beat width (sequential).
	BeatBytes int `json:"beat_bytes,omitempty"`
	// Seed fixes the pseudo-random sequence (random).
	Seed int64 `json:"seed,omitempty"`
	// WindowBytes bounds the random address window (random).
	WindowBytes uint32 `json:"window_bytes,omitempty"`
	// MaxBeats bounds the random burst length (random).
	MaxBeats int `json:"max_beats,omitempty"`
	// WriteFrac in [0,1] is the fraction of writes (random).
	WriteFrac float64 `json:"write_frac,omitempty"`
	// MeanGap is the mean idle time between transactions (random).
	MeanGap int `json:"mean_gap,omitempty"`
	// BurstTxns is the transactions per active phase (bursty).
	BurstTxns int `json:"burst_txns,omitempty"`
	// IdleGap is the idle time between active phases (bursty).
	IdleGap uint64 `json:"idle_gap,omitempty"`
	// Period is the issue period (stream).
	Period uint64 `json:"period,omitempty"`
	// Write makes the traffic writes instead of reads (bursty, stream).
	Write bool `json:"write,omitempty"`
	// Reqs is the fixed transaction list (script).
	Reqs []ReqSpec `json:"reqs,omitempty"`
}

// Spec is a complete declarative workload: a named platform
// configuration plus one generator descriptor per master.
type Spec struct {
	// SpecVersion is the schema version (must equal Version).
	SpecVersion int `json:"version"`
	// Name labels the workload in reports and scenario listings.
	Name string `json:"name"`
	// Params is the platform configuration.
	Params config.Params `json:"params"`
	// Masters holds one generator descriptor per master port, in port
	// order; len(Masters) must equal len(Params.Masters).
	Masters []GenSpec `json:"masters"`
	// MaxCycles caps the run (0 = the harness default cap).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
}

// Clone returns a deep copy of the spec: mutating the copy's masters,
// platform parameters or script requests never aliases the original.
// Grid engines (internal/sweep) rely on this to derive many variants
// from one base spec.
func (s Spec) Clone() Spec {
	s.Params.Masters = append([]config.MasterCfg(nil), s.Params.Masters...)
	masters := append([]GenSpec(nil), s.Masters...)
	for i := range masters {
		masters[i].Reqs = append([]ReqSpec(nil), masters[i].Reqs...)
	}
	s.Masters = masters
	return s
}

// Decode parses a spec from JSON. The decoder is strict: unknown
// fields, trailing data and schema-version mismatches are errors, so
// a typo'd field name cannot silently produce a default-valued (and
// differently hashed) workload. The fast reader (codec.go) answers for
// the documents it can; DecodeStrict, encoding/json, decodes the rest
// and words every error.
func Decode(data []byte) (Spec, error) {
	s, ok := readSpec(data)
	if !ok {
		// A variable of its own, so that s stays off the heap when the
		// fast reader answers.
		var slow Spec
		if err := DecodeStrict(data, &slow); err != nil {
			return Spec{}, fmt.Errorf("spec: %w", err)
		}
		s = slow
	}
	if s.SpecVersion != Version {
		return Spec{}, fmt.Errorf("spec: unsupported version %d (want %d)", s.SpecVersion, Version)
	}
	return s, nil
}

// DecodeList parses one spec or an array of specs from JSON, with the
// same strictness as Decode (unknown fields, trailing data and
// version mismatches are errors in both forms).
func DecodeList(data []byte) ([]Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var specs []Spec
	if err := dec.Decode(&specs); err != nil {
		single, serr := Decode(data)
		if serr != nil {
			return nil, fmt.Errorf("spec: neither a spec array (%v) nor a spec (%w)", err, serr)
		}
		return []Spec{single}, nil
	}
	if err := checkEOF(dec); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	for i, s := range specs {
		if s.SpecVersion != Version {
			return nil, fmt.Errorf("spec: entry %d: unsupported version %d (want %d)", i, s.SpecVersion, Version)
		}
	}
	return specs, nil
}

// Canonical returns the canonical encoding of the spec: compact JSON
// with fields in schema order, byte-identical to json.Marshal(s). Two
// specs describing the same workload have identical canonical bytes
// regardless of how they were written.
func (s Spec) Canonical() ([]byte, error) {
	var buf [canonicalBuf]byte
	b, _, err := s.canonical(buf[:0])
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// canonicalBuf sizes the stack buffer the canonical encoding is built
// in; a library scenario's takes about 1 KB.
const canonicalBuf = 2048

// Hash returns the content hash of the spec: the hex SHA-256 of its
// canonical encoding. Simulations are bit-reproducible, so the hash
// identifies the result as well as the workload.
func (s Spec) Hash() (string, error) {
	var buf [canonicalBuf]byte
	b, _, err := s.canonical(buf[:0])
	if err != nil {
		return "", err
	}
	return hashCanonical(b), nil
}

func hashCanonical(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	var digits [2 * sha256.Size]byte
	hex.Encode(digits[:], sum[:])
	return string(digits[:])
}

// Digests encodes the spec once and returns everything a grid engine
// derives from the encoding: the canonical bytes, the content hash
// (what Hash returns), and the workload digest — the SHA-256 of the
// canonical encoding the spec would have with its name cleared, which
// is equal for two specs that differ in name alone. The digest is
// taken over the same bytes with the encoded name cut out, not over a
// second encoding.
func (s Spec) Digests() (canonical []byte, hash string, workload [sha256.Size]byte, err error) {
	var buf [canonicalBuf]byte
	b, name, err := s.canonical(buf[:0])
	if err != nil {
		return nil, "", workload, err
	}
	h := sha256.New()
	h.Write(b[:name[0]])
	h.Write(b[name[1]:])
	h.Sum(workload[:0])
	return bytes.Clone(b), hashCanonical(b), workload, nil
}

// MarshalIndent renders the spec as indented JSON for files and docs.
// The canonical (hashed) form is the compact rendering; the indented
// form decodes back to the same canonical bytes.
func (s Spec) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return append(b, '\n'), nil
}

// Validate checks the whole spec — schema version, platform
// parameters, every generator descriptor, and cross-master address
// footprints — and reports all problems in one descriptive error.
func (s Spec) Validate() error {
	var errs check.Errors
	if s.SpecVersion != Version {
		errs.Addf("spec: unsupported version %d (want %d)", s.SpecVersion, Version)
	}
	if s.Name == "" {
		errs.Addf("spec: name required")
	}
	errs.Add(s.Params.Validate())
	if s.Params.MaxCycles != 0 {
		// Compilation reads only the spec-level cap; a dead field here
		// would change the content hash without changing the workload.
		errs.Addf("spec: params.max_cycles is not honored; set max_cycles at the spec top level")
	}
	if len(s.Masters) != len(s.Params.Masters) {
		errs.Addf("spec: %d generator descriptors for %d masters", len(s.Masters), len(s.Params.Masters))
	}
	if s.MaxCycles > MaxRunCycles {
		errs.Addf("spec: max_cycles %d out of range (max %d)", s.MaxCycles, uint64(MaxRunCycles))
	}
	for i, g := range s.Masters {
		g.validate(&errs, i)
		for _, f := range g.strayFields() {
			errs.Addf("spec: master %d (%s): field %q is not used by this kind", i, g.Kind, f)
		}
	}
	// Only check footprints once the descriptors are individually
	// sound; building generators from malformed descriptors could
	// divide by zero.
	if errs.Empty() {
		s.validateFootprints(&errs)
	}
	return errs.Err()
}

// validate checks one generator descriptor, reporting problems with
// the master index m.
func (g GenSpec) validate(errs *check.Errors, m int) {
	bad := func(format string, args ...any) {
		errs.Addf("spec: master %d (%s): %s", m, g.Kind, fmt.Sprintf(format, args...))
	}
	beatsOK := func(beats int) bool { return beats >= 1 && beats <= MaxBurstBeats }
	countOK := func() {
		if g.Count < 1 || g.Count > MaxCount {
			bad("count %d outside [1,%d]", g.Count, MaxCount)
		}
	}
	switch g.Kind {
	case KindSequential:
		countOK()
		if !beatsOK(g.Beats) {
			bad("beats %d outside [1,%d]", g.Beats, MaxBurstBeats)
		}
		switch g.BeatBytes {
		case 0, 1, 2, 4, 8, 16:
		default:
			bad("beat_bytes %d is not a power of two in [1,16]", g.BeatBytes)
		}
	case KindRandom:
		countOK()
		if g.MaxBeats < 1 || g.MaxBeats > 16 {
			bad("max_beats %d outside [1,16]", g.MaxBeats)
		}
		if g.WriteFrac < 0 || g.WriteFrac > 1 {
			bad("write_frac %g outside [0,1]", g.WriteFrac)
		}
		if g.MeanGap < 0 {
			bad("mean_gap %d negative", g.MeanGap)
		}
		// The generator aligns each burst inside the window, so the
		// window must hold the largest burst it can draw.
		if span := uint32(largestBurstUpTo(g.MaxBeats) * 4); g.WindowBytes < span {
			bad("window_bytes %d cannot hold a %d-byte burst", g.WindowBytes, span)
		}
	case KindBursty:
		countOK()
		if !beatsOK(g.Beats) {
			bad("beats %d outside [1,%d]", g.Beats, MaxBurstBeats)
		}
		if g.BurstTxns < 1 {
			bad("burst_txns %d must be >= 1", g.BurstTxns)
		}
	case KindStream:
		countOK()
		if !beatsOK(g.Beats) {
			bad("beats %d outside [1,%d]", g.Beats, MaxBurstBeats)
		}
		if g.Period < 1 {
			bad("period %d must be >= 1", g.Period)
		}
	case KindScript:
		if len(g.Reqs) == 0 {
			bad("script requires at least one request")
		}
		if len(g.Reqs) > MaxCount {
			bad("script length %d exceeds %d", len(g.Reqs), MaxCount)
		}
		for i, r := range g.Reqs {
			if !beatsOK(r.Beats) {
				bad("request %d: beats %d outside [1,%d]", i, r.Beats, MaxBurstBeats)
			}
		}
	case "":
		errs.Addf("spec: master %d: generator kind required", m)
	default:
		errs.Addf("spec: master %d: unknown generator kind %q", m, g.Kind)
	}
}

// strayFields returns the descriptor fields that are set but not
// consumed by the kind, sorted. A stray field would change the
// spec's canonical bytes — and therefore its content hash — without
// changing the workload, silently aliasing identical results under
// different cache keys, so validation rejects it.
func (g GenSpec) strayFields() []string {
	// Clear what the kind consumes (g is a copy); what is still set is
	// stray.
	switch g.Kind {
	case KindSequential:
		g.Base, g.Beats, g.Count, g.Gap, g.WriteEvery, g.WrapBytes, g.StrideBytes, g.BeatBytes = 0, 0, 0, 0, 0, 0, 0, 0
	case KindRandom:
		g.Base, g.Count, g.Seed, g.WindowBytes, g.MaxBeats, g.WriteFrac, g.MeanGap = 0, 0, 0, 0, 0, 0, 0
	case KindBursty:
		g.Base, g.Beats, g.Count, g.BurstTxns, g.IdleGap, g.Write = 0, 0, 0, 0, 0, false
	case KindStream:
		g.Base, g.Beats, g.Count, g.Period, g.Write, g.WrapBytes = 0, 0, 0, 0, false, 0
	case KindScript:
		g.Reqs = nil
	default:
		return nil // the kind itself is already rejected
	}
	var stray []string
	for _, f := range [...]struct {
		name string
		set  bool
	}{ // in sorted order
		{"base", g.Base != 0}, {"beat_bytes", g.BeatBytes != 0}, {"beats", g.Beats != 0},
		{"burst_txns", g.BurstTxns != 0}, {"count", g.Count != 0}, {"gap", g.Gap != 0},
		{"idle_gap", g.IdleGap != 0}, {"max_beats", g.MaxBeats != 0}, {"mean_gap", g.MeanGap != 0},
		{"period", g.Period != 0}, {"reqs", len(g.Reqs) != 0}, {"seed", g.Seed != 0},
		{"stride_bytes", g.StrideBytes != 0}, {"window_bytes", g.WindowBytes != 0},
		{"wrap_bytes", g.WrapBytes != 0}, {"write", g.Write}, {"write_every", g.WriteEvery != 0},
		{"write_frac", g.WriteFrac != 0},
	} {
		if f.set {
			stray = append(stray, f.name)
		}
	}
	return stray
}

// largestBurstUpTo returns the largest burst length Random can draw
// given its MaxBeats bound.
func largestBurstUpTo(maxBeats int) int {
	best := 1
	for _, l := range []int{4, 8, 16} {
		if l <= maxBeats {
			best = l
		}
	}
	return best
}

// Build compiles the descriptor into a fresh generator. The
// descriptor must have passed validation.
func (g GenSpec) Build() (traffic.Generator, error) {
	switch g.Kind {
	case KindSequential:
		return &traffic.Sequential{
			NameStr: g.Name, Base: g.Base, Beats: g.Beats, Gap: sim.Cycle(g.Gap),
			Count: g.Count, WriteEvery: g.WriteEvery, WrapBytes: g.WrapBytes,
			StrideBytes: g.StrideBytes, BeatBytes: g.BeatBytes,
		}, nil
	case KindRandom:
		return &traffic.Random{
			NameStr: g.Name, Seed: g.Seed, Base: g.Base, WindowBytes: g.WindowBytes,
			MaxBeats: g.MaxBeats, WriteFrac: g.WriteFrac, MeanGap: g.MeanGap, Count: g.Count,
		}, nil
	case KindBursty:
		return &traffic.Bursty{
			NameStr: g.Name, Base: g.Base, Beats: g.Beats, BurstTxns: g.BurstTxns,
			IdleGap: sim.Cycle(g.IdleGap), Count: g.Count, Write: g.Write,
		}, nil
	case KindStream:
		return &traffic.Stream{
			NameStr: g.Name, Base: g.Base, Beats: g.Beats, Period: sim.Cycle(g.Period),
			Count: g.Count, Write: g.Write, WrapBytes: g.WrapBytes,
		}, nil
	case KindScript:
		reqs := make([]traffic.Req, len(g.Reqs))
		for i, r := range g.Reqs {
			reqs[i] = traffic.Req{
				At: sim.Cycle(r.At), Addr: r.Addr, Write: r.Write,
				Burst: traffic.BurstFor(r.Beats), Beats: r.Beats,
			}
		}
		return &traffic.Script{NameStr: g.Name, Reqs: reqs}, nil
	}
	return nil, fmt.Errorf("spec: unknown generator kind %q", g.Kind)
}

// Gens compiles every descriptor into a fresh generator set. Each
// call returns new generators, so the identical sequence can be
// replayed through another model.
func (s Spec) Gens() ([]traffic.Generator, error) {
	gens := make([]traffic.Generator, len(s.Masters))
	for i, g := range s.Masters {
		built, err := g.Build()
		if err != nil {
			return nil, fmt.Errorf("spec: master %d: %w", i, err)
		}
		gens[i] = built
	}
	return gens, nil
}

// footprintCap bounds the per-master transaction enumeration of the
// address-overlap check; a walk that is still producing at the cap is
// covered by one conservative interval over its full analytic extent
// instead (which may false-positive on very long sparse strides, but
// never misses an overlap).
const footprintCap = 1 << 16

// interval is one half-open touched address range.
type interval struct {
	lo, hi uint32
	master int
}

// validateFootprints rejects masters whose generators touch
// overlapping address ranges. Two ports writing the same bytes make
// the memory image depend on arbitration order, which breaks the
// cross-model reproducibility contract every spec promises; the check
// derives the deterministic address sequences (windows for random
// generators), so bank-interleaved layouts whose spans interleave
// without sharing a byte pass. Every overlapping master pair is
// reported, not just the first.
func (s Spec) validateFootprints(errs *check.Errors) {
	bus := s.Params.BusBytes
	if bus <= 0 {
		bus = 4
	}
	// A contiguous walk is one interval, so the usual spec fits the
	// stack buffers and the check allocates nothing.
	var ivBuf, activeBuf [config.MaxMasters]interval
	ivs := ivBuf[:0]
	for m, g := range s.Masters {
		ivs = g.footprint(ivs, m, bus)
	}
	slices.SortFunc(ivs, func(a, b interval) int {
		if a.lo != b.lo {
			return cmp.Compare(a.lo, b.lo)
		}
		return cmp.Compare(a.master, b.master)
	})
	// Sweep with the full active set (at most one live interval per
	// master, since each master's own intervals are merged and
	// disjoint) so pairs nested inside a wider interval still report.
	var seen map[[2]int]bool
	active := activeBuf[:0]
	for _, cur := range ivs {
		live := active[:0]
		for _, a := range active {
			if a.hi > cur.lo {
				live = append(live, a)
			}
		}
		active = live
		for _, a := range active {
			if a.master == cur.master {
				continue
			}
			pair := [2]int{a.master, cur.master}
			if pair[0] > pair[1] {
				pair[0], pair[1] = pair[1], pair[0]
			}
			if !seen[pair] {
				if seen == nil {
					seen = map[[2]int]bool{}
				}
				seen[pair] = true
				errs.Addf("spec: masters %d and %d touch overlapping address ranges near %#x",
					pair[0], pair[1], cur.lo)
			}
		}
		active = append(active, cur)
	}
}

// appendInterval appends master m's range [lo, lo+span) to ivs, clamped
// at the top of the 32-bit address space, extending m's previous range
// instead when the new one starts inside or right at the end of it.
func appendInterval(ivs []interval, m int, lo uint32, span uint64) []interval {
	if span == 0 {
		return ivs
	}
	hi := uint32(math.MaxUint32)
	if hi64 := uint64(lo) + span; hi64 < math.MaxUint32 {
		hi = uint32(hi64)
	}
	if n := len(ivs); n > 0 && ivs[n-1].master == m && ivs[n-1].lo <= lo && lo <= ivs[n-1].hi {
		ivs[n-1].hi = max(ivs[n-1].hi, hi)
		return ivs
	}
	return append(ivs, interval{lo: lo, hi: hi, master: m})
}

// footprint appends to ivs the merged address intervals the
// descriptor's generator will touch, tagged with the master index m.
// busBytes is the platform beat width: each beat of a burst moves that
// many bytes, so a request at addr spans [addr, addr+beats*busBytes).
// The descriptor must have passed validation.
func (g GenSpec) footprint(ivs []interval, m int, busBytes int) []interval {
	start := len(ivs)
	switch g.Kind {
	case KindRandom:
		// Uniform over the window — but the generator aligns bursts in
		// beats*4 units, so on a wider bus the final beats of a burst
		// starting near the window end reach past it by up to
		// beats*(busBytes-4) bytes.
		span := uint64(g.WindowBytes)
		if busBytes > 4 {
			span += uint64(largestBurstUpTo(g.MaxBeats)) * uint64(busBytes-4)
		}
		ivs = appendInterval(ivs, m, g.Base, span)
	case KindScript:
		for _, r := range g.Reqs {
			ivs = appendInterval(ivs, m, r.Addr, uint64(r.Beats*busBytes))
		}
	case KindSequential, KindBursty, KindStream:
		ivs = g.walkFootprint(ivs, m, busBytes)
	}
	return mergeIntervals(ivs, start)
}

// walkFootprint appends the footprint of a sequential, bursty or stream
// address walk. The walk is deterministic and independent of bus
// timing: transaction n starts at Base + n*step, back at Base whenever
// the address reaches Base+WrapBytes, all in 32-bit arithmetic. Its
// footprint therefore needs no generator: a walk whose step does not
// exceed one transaction's span covers one contiguous range, in closed
// form; a sparser one costs one range per distinct address. Past
// footprintCap transactions the walk's conservative extent stands in
// for the rest.
func (g GenSpec) walkFootprint(ivs []interval, m int, busBytes int) []interval {
	span := uint64(g.Beats * busBytes)
	step, wrap := uint32(g.Beats*4), g.WrapBytes
	switch g.Kind {
	case KindSequential:
		if g.BeatBytes > busBytes {
			span = uint64(g.Beats * g.BeatBytes)
		}
		switch {
		case g.StrideBytes != 0:
			step = g.StrideBytes
		case g.BeatBytes != 0:
			step = uint32(g.Beats * g.BeatBytes)
		}
	case KindBursty:
		wrap = 0
	}
	n := g.Count
	capped := n >= footprintCap
	if capped {
		n = footprintCap
		ivs = appendInterval(ivs, m, g.Base, g.walkExtent(span))
	}

	// The walk is ascending when no address computation wraps around
	// 2^32 before the walk is back at Base; it then visits Base + j*step
	// for j below the wrap period.
	const top = 1 << 32
	base, step64, distinct := uint64(g.Base), uint64(step), uint64(n)
	ascending := base+(distinct-1)*step64 < top
	if wrap > 0 {
		ascending = base+uint64(wrap)+step64 <= top
		distinct = min(distinct, (uint64(wrap)+step64-1)/step64)
	}
	switch {
	case ascending && capped:
		// The extent interval already covers every enumerated address.
	case ascending && step64 <= span:
		ivs = appendInterval(ivs, m, g.Base, (distinct-1)*step64+span)
	default:
		// One range per distinct address: the walk repeats itself once
		// it is back at Base.
		addr, limit := g.Base, g.Base+wrap
		for i := 0; i < n; i++ {
			ivs = appendInterval(ivs, m, addr, span)
			addr += step
			if wrap > 0 && addr >= limit {
				addr = g.Base
			}
			if addr == g.Base {
				break
			}
		}
	}
	return ivs
}

// walkExtent returns a conservative upper bound, in bytes from Base,
// on how far the descriptor's full walk can reach, given the span of
// one transaction.
func (g GenSpec) walkExtent(span uint64) uint64 {
	if g.WrapBytes > 0 {
		// The walk resets into [Base, Base+WrapBytes); the final burst
		// can poke at most one span past the wrap point.
		return uint64(g.WrapBytes) + span
	}
	// Unwrapped walks advance by a fixed step per transaction.
	step := uint64(g.StrideBytes)
	if step == 0 {
		bb := g.BeatBytes
		if bb == 0 {
			bb = 4
		}
		// Bursty and stream advance by beats*4; sequential by
		// beats*(beat_bytes|4). Both are covered by beats*max(bb,4).
		step = uint64(g.Beats * bb)
	}
	if g.Count <= 0 {
		return span
	}
	return uint64(g.Count-1)*step + span
}

// mergeIntervals coalesces ivs[start:], one master's intervals, in
// place, sorting them first unless they already ascend.
func mergeIntervals(ivs []interval, start int) []interval {
	tail := ivs[start:]
	if len(tail) <= 1 {
		return ivs
	}
	byLo := func(a, b interval) int { return cmp.Compare(a.lo, b.lo) }
	if !slices.IsSortedFunc(tail, byLo) {
		slices.SortFunc(tail, byLo)
	}
	out := tail[:1]
	for _, iv := range tail[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			last.hi = max(last.hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return ivs[:start+len(out)]
}
