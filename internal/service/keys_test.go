package service

import (
	"strings"
	"testing"
)

// TestResultKeyShapes pins the key vocabulary: what each selector and
// tail formats to, that every formatted key splits back into the same
// tail, every shape /results refuses, and that a key of another model
// revision splits to nothing.
func TestResultKeyShapes(t *testing.T) {
	hash := strings.Repeat("0f", 32)
	rev := ModelRevision
	cases := []struct {
		model, want string
	}{
		{"", "run:" + rev + ":TL:" + hash},
		{"tl", "run:" + rev + ":TL:" + hash},
		{"tlm", "run:" + rev + ":TL:" + hash},
		{"rtl", "run:" + rev + ":RTL:" + hash},
		{"compare", "compare:" + rev + ":" + hash},
	}
	for _, c := range cases {
		got, err := ResultKey(c.model, hash)
		if err != nil {
			t.Fatalf("ResultKey(%q): %v", c.model, err)
		}
		if got != c.want {
			t.Fatalf("ResultKey(%q) = %q, want %q", c.model, got, c.want)
		}
		m, err := sweepModel(c.model)
		if err != nil || m.Key(hash) != c.want {
			t.Fatalf("sweepModel(%q).Key = %q, %v; want %q", c.model, m.Key(hash), err, c.want)
		}
		if !ValidResultKey(got) {
			t.Fatalf("ValidResultKey(%q) = false", got)
		}
		if tail, manifest, ok := SplitKey(got); !ok || manifest || tail != hash {
			t.Fatalf("SplitKey(%q) = %q, %v, %v; want the hash of a result", got, tail, manifest, ok)
		}
	}
	if _, err := ResultKey("tl", "short"); err == nil {
		t.Fatal("ResultKey accepted a bogus hash")
	}
	if _, err := ResultKey("warp", hash); err == nil {
		t.Fatal("ResultKey accepted a bogus model")
	}

	// A manifest key is part of the vocabulary — it splits, and places by
	// its sweep id — but it is not a result slot.
	mk := manifestKey(hash)
	if mk != "sweep:"+rev+":"+hash {
		t.Fatalf("manifestKey = %q", mk)
	}
	if tail, manifest, ok := SplitKey(mk); !ok || !manifest || tail != hash {
		t.Fatalf("SplitKey(%q) = %q, %v, %v; want the id of a manifest", mk, tail, manifest, ok)
	}

	// Another revision, or the shapes before keys carried one: no
	// result, no manifest, no placement.
	for _, old := range []string{
		"run:TL:" + hash, "run:RTL:" + hash, "compare:" + hash, "sweep:" + hash,
		"run:r0:TL:" + hash, "compare:r0:" + hash, "sweep:r0:" + hash,
		"run:" + rev + "x:TL:" + hash, "run:TL:" + rev + ":" + hash,
	} {
		if tail, manifest, ok := SplitKey(old); ok {
			t.Fatalf("SplitKey(%q) = %q, %v, true; want another revision rejected", old, tail, manifest)
		}
	}

	run := "run:" + rev + ":"
	upper := strings.ToUpper(hash)
	for _, bad := range []string{
		"", hash, ":" + hash,
		run + "TL:", "compare:" + rev + ":", "sweep:" + rev + ":",
		mk,                                      // a manifest is no result slot
		run + "tl:" + hash, run + "TLM:" + hash, // MODEL is exactly TL or RTL
		run + hash, run + ":" + hash, // no model
		"compare:" + rev + ":TL:" + hash, "sweep:" + rev + ":TL:" + hash, // a model where none belongs
		"secret:" + hash, "RUN:" + rev + ":TL:" + hash, " " + run + "TL:" + hash,
		run + "TL:deadbeef", run + "TL:nothex", run + "TL:" + upper,
		run + "TL:" + hash + "ff", run + "TL:" + hash[1:], run + "TL:" + hash + ":",
		run + "TL:x:" + hash,
	} {
		if ValidResultKey(bad) {
			t.Fatalf("ValidResultKey(%q) = true", bad)
		}
		if _, manifest, ok := SplitKey(bad); ok && !manifest {
			t.Fatalf("SplitKey(%q) accepted a result key ValidResultKey refuses", bad)
		}
	}
}
