package spec

// The footprint oracle: the validator as it was before footprints were
// computed in closed form. It replays every master's address walk
// through the real traffic generators, one interval per transaction,
// sorts and merges — O(count), but obviously faithful to what the
// generators do. The production code must agree with it interval for
// interval and error string for error string (FuzzFootprintOracle).

import (
	"sort"

	"repro/internal/check"
)

// oracleValidate is Spec.Validate over the oracle's stray-field and
// footprint checks.
func oracleValidate(s Spec) error {
	var errs check.Errors
	if s.SpecVersion != Version {
		errs.Addf("spec: unsupported version %d (want %d)", s.SpecVersion, Version)
	}
	if s.Name == "" {
		errs.Addf("spec: name required")
	}
	errs.Add(s.Params.Validate())
	if s.Params.MaxCycles != 0 {
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
		for _, f := range oracleStrayFields(g) {
			errs.Addf("spec: master %d (%s): field %q is not used by this kind", i, g.Kind, f)
		}
	}
	if errs.Empty() {
		oracleValidateFootprints(s, &errs)
	}
	return errs.Err()
}

func oracleStrayFields(g GenSpec) []string {
	allowed := map[string]bool{}
	switch g.Kind {
	case KindSequential:
		for _, f := range []string{"base", "beats", "count", "gap", "write_every", "wrap_bytes", "stride_bytes", "beat_bytes"} {
			allowed[f] = true
		}
	case KindRandom:
		for _, f := range []string{"base", "count", "seed", "window_bytes", "max_beats", "write_frac", "mean_gap"} {
			allowed[f] = true
		}
	case KindBursty:
		for _, f := range []string{"base", "beats", "count", "burst_txns", "idle_gap", "write"} {
			allowed[f] = true
		}
	case KindStream:
		for _, f := range []string{"base", "beats", "count", "period", "write", "wrap_bytes"} {
			allowed[f] = true
		}
	case KindScript:
		allowed["reqs"] = true
	default:
		return nil // the kind itself is already rejected
	}
	set := map[string]bool{
		"base": g.Base != 0, "beats": g.Beats != 0, "count": g.Count != 0,
		"gap": g.Gap != 0, "write_every": g.WriteEvery != 0,
		"wrap_bytes": g.WrapBytes != 0, "stride_bytes": g.StrideBytes != 0,
		"beat_bytes": g.BeatBytes != 0, "seed": g.Seed != 0,
		"window_bytes": g.WindowBytes != 0, "max_beats": g.MaxBeats != 0,
		"write_frac": g.WriteFrac != 0, "mean_gap": g.MeanGap != 0,
		"burst_txns": g.BurstTxns != 0, "idle_gap": g.IdleGap != 0,
		"period": g.Period != 0, "write": g.Write, "reqs": len(g.Reqs) != 0,
	}
	var stray []string
	for name, isSet := range set {
		if isSet && !allowed[name] {
			stray = append(stray, name)
		}
	}
	sort.Strings(stray)
	return stray
}

func oracleValidateFootprints(s Spec, errs *check.Errors) {
	bus := s.Params.BusBytes
	if bus <= 0 {
		bus = 4
	}
	var ivs []interval
	for m, g := range s.Masters {
		ivs = append(ivs, oracleFootprint(g, m, bus)...)
	}
	if len(ivs) == 0 {
		return
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].master < ivs[j].master
	})
	// Sweep with the full active set (at most one live interval per
	// master, since each master's own intervals are merged and
	// disjoint) so pairs nested inside a wider interval still report.
	seen := map[[2]int]bool{}
	var active []interval
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
				seen[pair] = true
				errs.Addf("spec: masters %d and %d touch overlapping address ranges near %#x",
					pair[0], pair[1], cur.lo)
			}
		}
		active = append(active, cur)
	}
}

func oracleFootprint(g GenSpec, m int, busBytes int) []interval {
	var ivs []interval
	add := func(lo uint32, span uint64) {
		if span == 0 {
			return
		}
		hi64 := uint64(lo) + span
		hi := uint32(hi64)
		if hi64 > uint64(^uint32(0)) { // clamp past the 32-bit address space
			hi = ^uint32(0)
		}
		ivs = append(ivs, interval{lo: lo, hi: hi, master: m})
	}
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
		add(g.Base, span)
	case KindScript:
		for _, r := range g.Reqs {
			add(r.Addr, uint64(r.Beats*busBytes))
		}
	default:
		// Sequential, bursty and stream address walks are deterministic
		// and independent of bus timing: replay the walk.
		gen, err := g.Build()
		if err != nil {
			return nil
		}
		span := uint64(g.Beats * busBytes)
		if g.Kind == KindSequential && g.BeatBytes > 0 && g.BeatBytes > busBytes {
			span = uint64(g.Beats * g.BeatBytes)
		}
		exhausted := false
		for n := 0; n < footprintCap; n++ {
			req, ok := gen.Next(0)
			if !ok {
				exhausted = true
				break
			}
			add(req.Addr, span)
		}
		if !exhausted {
			// The walk outruns the enumeration budget: cover its whole
			// analytic extent with one conservative interval.
			add(g.Base, oracleWalkExtent(g, span))
		}
	}
	return oracleMergeIntervals(ivs)
}

func oracleWalkExtent(g GenSpec, span uint64) uint64 {
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

func oracleMergeIntervals(ivs []interval) []interval {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
