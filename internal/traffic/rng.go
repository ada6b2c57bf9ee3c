package traffic

import "math/rand"

// rng is an exact replica of math/rand's (v1) default source and of
// the rand.Rand draws Random makes from it. Go 1 compatibility freezes
// that stream, and every library scenario's result bytes hang on it, so
// the replica must not drift by a single value: TestRNGMatchesMathRand
// and FuzzRandomMatchesMathRand hold it to rand.New(rand.NewSource).
//
// It exists for speed. rand.NewSource runs the Park–Miller seeding
// recurrence 1,841 times through serial Schrage divisions; seed below
// computes the same values as independent products with precomputed
// powers of the multiplier. Held by value, the state costs no
// allocation, and the draws inline instead of crossing the Source
// interface.
type rng struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1 // the Park–Miller modulus, a prime

	// seedMul is the Park–Miller multiplier math/rand seeds with.
	seedMul = 48271
	// seedSkip is the number of recurrence steps math/rand discards
	// before the first state word; each word then takes three.
	seedSkip = 20
)

var (
	// seedPow[k] is seedMul^(k+1) mod int32max: the recurrence's
	// (k+1)-th value for a start value of one.
	seedPow [seedSkip + 3*rngLen]uint64
	// rngCooked is the table math/rand XORs into the seeded state.
	rngCooked [rngLen]int64
)

func init() {
	x := uint64(1)
	for k := range seedPow {
		x = x * seedMul % int32max
		seedPow[k] = x
	}
	rngCooked = cookedFromMathRand()
}

// cookedFromMathRand recovers math/rand's cooked table from the first
// rngLen outputs of one of its sources. Output k adds state word
// (rngLen-rngTap-1-k) mod rngLen, still unchanged, to state word
// rngLen-1-k, which output k-rngTap has already replaced when
// k >= rngTap. So the outputs from rngTap on give the first words
// directly, and the earlier ones then give the rest. XORing out the
// seeded values leaves the table.
func cookedFromMathRand() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out, vec [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	for k := rngTap; k < rngLen; k++ {
		vec[(2*rngLen-rngTap-1-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[rngLen-rngTap-1-k] = out[k] - vec[rngLen-1-k]
	}
	var r rng
	r.seed(seed)
	var cooked [rngLen]int64
	for i := range cooked {
		cooked[i] = vec[i] ^ r.vec[i] // r.vec holds seeded values XOR a zero table
	}
	return cooked
}

// seed is rngSource.Seed with x_k = seedMul^k · x_0 mod int32max
// computed from seedPow instead of by k serial steps.
func (r *rng) seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x0 := uint64(seed)
	for i := range r.vec {
		k := seedSkip + 3*i
		u := int64(lehmer(seedPow[k], x0)) << 40
		u ^= int64(lehmer(seedPow[k+1], x0)) << 20
		u ^= int64(lehmer(seedPow[k+2], x0))
		r.vec[i] = u ^ rngCooked[i]
	}
}

// lehmer returns m·x mod int32max for m, x < 2^31 by folding: since
// 2^31 ≡ 1, the high bits add onto the low ones.
func lehmer(m, x uint64) uint64 {
	p := m * x
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// Int63 is rngSource.Int63.
func (r *rng) Int63() int64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x & (1<<63 - 1)
}

// Int31 is rand.Rand.Int31.
func (r *rng) Int31() int32 { return int32(r.Int63() >> 32) }

// Int63n is rand.Rand.Int63n; n must be positive.
func (r *rng) Int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Int31n is rand.Rand.Int31n; n must be positive.
func (r *rng) Int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn is rand.Rand.Intn; n must be positive.
func (r *rng) Intn(n int) int {
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 is rand.Rand.Float64.
func (r *rng) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
