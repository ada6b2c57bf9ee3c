package traffic

import (
	"math"
	"math/rand"
	"testing"
)

// drawNs are the Intn bounds the scripts draw with: powers of two (the
// masking branch), odd and even bounds (the rejection loop), and bounds
// above 2^31 (Intn's Int63n branch). A bound an int cannot hold (a
// 32-bit one) is drawn with Int63n instead.
var drawNs = [...]int64{1, 2, 3, 7, 16, 21, 1 << 10, 1000, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, 3 << 50, math.MaxInt64}

// drawBoth makes draw op on both generators and returns the two
// results.
func drawBoth(r *rng, ref *rand.Rand, op byte) (got, want any) {
	switch op % 3 {
	case 0:
		n := drawNs[int(op/3)%len(drawNs)]
		if int64(int(n)) != n {
			return r.Int63n(n), ref.Int63n(n)
		}
		return r.Intn(int(n)), ref.Intn(int(n))
	case 1:
		return r.Int63(), ref.Int63()
	default:
		return r.Float64(), ref.Float64()
	}
}

// checkScript seeds the replica and math/rand alike and runs the draw
// script on both; more draws than rngLen exercise the index wrap.
func checkScript(t *testing.T, seed int64, script []byte) {
	t.Helper()
	var r rng
	r.seed(seed)
	ref := rand.New(rand.NewSource(seed))
	for i, op := range script {
		if got, want := drawBoth(&r, ref, op); got != want {
			t.Fatalf("seed %d draw %d (op %d): replica %v, math/rand %v", seed, i, op, got, want)
		}
	}
}

func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, 42, 89482311,
		int32max, -int32max, 2 * int32max, -2 * int32max, int32max + 1, int32max - 1,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	}
	src := rand.New(rand.NewSource(20050307))
	for range 16 {
		seeds = append(seeds, int64(src.Uint64()))
	}
	script := make([]byte, 3*rngLen)
	for i := range script {
		script[i] = byte(i*7 + i/3)
	}
	for _, seed := range seeds {
		checkScript(t, seed, script)
	}
}

func TestRandomWithoutTransactionsNeverSeeds(t *testing.T) {
	g := &Random{Seed: 9, WindowBytes: 1 << 16, MaxBeats: 4}
	if _, ok := g.Next(0); ok {
		t.Fatal("a generator with Count 0 issued a request")
	}
	if g.seeded {
		t.Fatal("a generator with Count 0 seeded its source")
	}
}

func FuzzRandomMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(-1), []byte{24, 27, 30, 33, 36, 39})
	f.Add(int64(math.MinInt64), []byte{2, 2, 2})
	f.Add(int64(math.MaxInt64), []byte{1, 1, 1, 0})
	f.Add(int64(int32max), []byte{5, 8, 11})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		// Repeat short scripts past rngLen draws so the fuzzer reaches
		// the state wrap without growing its inputs.
		for len(script) > 0 && len(script) < 2*rngLen {
			script = append(script, script...)
		}
		checkScript(t, seed, script)
	})
}
