// The key vocabulary of the result space. Every cached byte in a
// deployment — worker memory, disk store, router cache, the envelopes a
// drain moves between shards — lives under one of three key shapes:
//
//	run:<MODEL>:<hash>   one model's /run body (MODEL is TL or RTL)
//	compare:<hash>       a /compare accuracy row
//	sweep:<id>           a sweep's checkpoint manifest
//
// where the tail is a SHA-256 in lower-case hex: the spec's content
// hash, or the sweep id. The tail is also the string rendezvous
// placement hashes, so a key alone says which shard owns it. This file
// is the only place the shapes are formatted, validated or split, and
// the only place a request's model selector is parsed.
package service

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

const (
	runPrefix     = "run:"
	comparePrefix = "compare:"
	sweepPrefix   = "sweep:"
)

// SweepModel is a validated model selector — what a /run, or every
// variant of a sweep grid, runs.
type SweepModel struct {
	// Name is the selector as the request spelled it: "", "tl", "tlm",
	// "rtl" or "compare".
	Name string
	// Compare selects both models and one accuracy row per variant
	// (the /compare endpoint) instead of a single-model /run.
	Compare bool
	// core is the model a single-model run executes.
	core core.Model
}

// sweepModel resolves a request's model selector.
func sweepModel(name string) (SweepModel, error) {
	if name == "compare" {
		return SweepModel{Name: name, Compare: true, core: core.TLM}, nil
	}
	m, err := core.ParseModel(name)
	if err != nil {
		return SweepModel{}, fmt.Errorf("unknown model %q (want tl, rtl or compare)", name)
	}
	return SweepModel{Name: name, core: m}, nil
}

// Key is the key the result for the spec with content hash lives under
// — the same key whether a direct /run or /compare, a sweep variant or
// a thief's write-back produced it, so they all share one result space.
func (m SweepModel) Key(hash string) string {
	if m.Compare {
		return comparePrefix + hash
	}
	return runPrefix + m.core.String() + ":" + hash
}

// manifestKey is the key sweep id's manifest lives under.
func manifestKey(id string) string { return sweepPrefix + id }

// ResultKey maps a model selector ("", "tl", "tlm", "rtl", "compare")
// and a spec content hash to the result's key, rejecting a selector or
// a hash that is not one.
func ResultKey(model string, hash string) (string, error) {
	if !validSpecHash(hash) {
		return "", fmt.Errorf("%q is not a spec content hash", hash)
	}
	m, err := sweepModel(model)
	if err != nil {
		return "", err
	}
	return m.Key(hash), nil
}

// SplitKey validates a result-space key and returns its tail — the
// spec content hash or sweep id that placement hashes — and whether it
// names a sweep manifest rather than a result. ok=false for anything
// that is not exactly one of the three shapes.
func SplitKey(key string) (tail string, manifest, ok bool) {
	i := strings.LastIndexByte(key, ':')
	head, tail := key[:i+1], key[i+1:]
	switch head {
	case runPrefix + core.TLM.String() + ":", runPrefix + core.RTL.String() + ":", comparePrefix:
	case sweepPrefix:
		manifest = true
	default:
		return "", false, false
	}
	return tail, manifest, validSpecHash(tail)
}

// ValidResultKey reports whether key names a result slot /results
// accepts: run:TL:<hash>, run:RTL:<hash> or compare:<hash>.
func ValidResultKey(key string) bool {
	_, manifest, ok := SplitKey(key)
	return ok && !manifest
}

// validSpecHash reports whether s looks like a SHA-256 content hash.
func validSpecHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
