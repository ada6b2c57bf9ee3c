// Package traffic provides the parameterized master traffic generators
// used to drive both bus models. The paper's Table 1 varies "the
// traffic patterns of the masters"; the generator families here cover
// the same space: streaming/DMA sequential traffic, CPU-like random
// traffic, bursty on/off sources, and periodic real-time streams, all
// deterministic under a fixed seed so the RTL model and the TLM replay
// identical workloads.
package traffic

import (
	"repro/internal/amba"
	"repro/internal/sim"
)

// Req is one transaction a master wants to issue.
type Req struct {
	// At is the earliest cycle the master asserts its bus request.
	At sim.Cycle
	// Addr is the first-beat address.
	Addr uint32
	// Write is the direction.
	Write bool
	// Burst is the AHB burst kind.
	Burst amba.Burst
	// Beats is the burst length.
	Beats int
}

// Generator produces a master's transaction sequence. Next is called
// with the completion cycle of the previous transaction (0 for the
// first call) and returns the next request, or ok=false when the
// workload is exhausted. Generators must be deterministic.
type Generator interface {
	// Name labels the generator in reports.
	Name() string
	// Next returns the next request given the previous completion time.
	Next(prevDone sim.Cycle) (req Req, ok bool)
	// Reset rewinds the generator to its initial state so the identical
	// sequence can be replayed through another model.
	Reset()
}

// burstLengths are the beat counts Random draws from.
var burstLengths = [...]int{1, 4, 8, 16}

// beatsFor converts a beat count into the matching fixed burst kind.
func beatsFor(beats int) amba.Burst {
	return amba.FixedBurstFor(beats, false)
}

// BurstFor returns the burst kind a generator emits for a beats-long
// fixed request. External workload compilers (internal/spec) use it so
// scripted requests carry the same encoding the generators produce.
func BurstFor(beats int) amba.Burst { return beatsFor(beats) }

// Sequential walks an address range with a fixed stride, the classic
// DMA/streaming pattern.
type Sequential struct {
	// NameStr labels the generator.
	NameStr string
	// Base is the starting address.
	Base uint32
	// Beats is the burst length of every transaction.
	Beats int
	// Gap is the idle time between a completion and the next request.
	Gap sim.Cycle
	// Count is the number of transactions to produce.
	Count int
	// WriteEvery makes every n-th transaction a write (0 = all reads,
	// 1 = all writes).
	WriteEvery int
	// WrapBytes wraps the address walk within this window (0 = no wrap).
	WrapBytes uint32
	// StrideBytes overrides the step between transactions (0 = the
	// burst size, i.e. a contiguous walk). Large strides model
	// row-thrashing access patterns.
	StrideBytes uint32
	// BeatBytes is the bus beat width the walk assumes (0 = 4, the
	// 32-bit AHB default); it sizes the contiguous stride.
	BeatBytes int

	issued int
	addr   uint32
}

// beatBytes returns bb, or 4 — the 32-bit AHB beat — when bb is 0.
func beatBytes(bb int) int {
	if bb == 0 {
		return 4
	}
	return bb
}

// Name implements Generator.
func (s *Sequential) Name() string {
	if s.NameStr != "" {
		return s.NameStr
	}
	return "sequential"
}

// Next implements Generator.
func (s *Sequential) Next(prevDone sim.Cycle) (Req, bool) {
	if s.issued >= s.Count {
		return Req{}, false
	}
	if s.issued == 0 {
		s.addr = s.Base
	}
	write := s.WriteEvery == 1 || (s.WriteEvery > 1 && (s.issued+1)%s.WriteEvery == 0)
	r := Req{
		At:    prevDone + s.Gap,
		Addr:  s.addr,
		Write: write,
		Burst: beatsFor(s.Beats),
		Beats: s.Beats,
	}
	step := s.StrideBytes
	if step == 0 {
		step = uint32(s.Beats * beatBytes(s.BeatBytes))
	}
	s.addr += step
	if s.WrapBytes > 0 && s.addr >= s.Base+s.WrapBytes {
		s.addr = s.Base
	}
	s.issued++
	return r, true
}

// Reset implements Generator.
func (s *Sequential) Reset() { s.issued = 0; s.addr = s.Base }

// Random issues uniformly random addresses within a window with random
// burst lengths and a configurable write fraction: CPU-like traffic
// with no locality.
type Random struct {
	// NameStr labels the generator.
	NameStr string
	// Seed fixes the pseudo-random sequence.
	Seed int64
	// Base and WindowBytes bound the addresses.
	Base        uint32
	WindowBytes uint32
	// MaxBeats bounds the burst length (chosen from {1,4,8,16} up to it).
	MaxBeats int
	// WriteFrac in [0,1] is the fraction of writes.
	WriteFrac float64
	// MeanGap is the average idle time between transactions.
	MeanGap int
	// Count is the number of transactions to produce.
	Count int
	// BeatBytes is the bus beat width (0 = 4): a burst of n beats spans
	// n*BeatBytes bytes and is aligned to that span.
	BeatBytes int

	rng    rng
	seeded bool
	issued int
}

// Name implements Generator.
func (r *Random) Name() string {
	if r.NameStr != "" {
		return r.NameStr
	}
	return "random"
}

// Next implements Generator.
func (r *Random) Next(prevDone sim.Cycle) (Req, bool) {
	if r.issued >= r.Count {
		return Req{}, false
	}
	if !r.seeded {
		r.rng.seed(r.Seed)
		r.seeded = true
	}
	r.issued++
	beats := 1
	for _, l := range burstLengths {
		if l <= r.MaxBeats && r.rng.Intn(2) == 0 {
			beats = l
		}
	}
	gap := sim.Cycle(0)
	if r.MeanGap > 0 {
		gap = sim.Cycle(r.rng.Intn(2*r.MeanGap + 1))
	}
	// Align so the burst cannot cross the 1KB AHB boundary.
	span := uint32(beats * beatBytes(r.BeatBytes))
	addr := r.Base + (uint32(r.rng.Int63())%(r.WindowBytes/span))*span
	return Req{
		At:    prevDone + gap,
		Addr:  addr,
		Write: r.rng.Float64() < r.WriteFrac,
		Burst: beatsFor(beats),
		Beats: beats,
	}, true
}

// Reset implements Generator.
func (r *Random) Reset() { r.seeded = false; r.issued = 0 }

// Bursty alternates between an active phase of back-to-back sequential
// transactions and a long idle phase — on/off traffic such as a block
// DMA that sleeps between buffers.
type Bursty struct {
	// NameStr labels the generator.
	NameStr string
	// Base is the starting address.
	Base uint32
	// Beats is the per-transaction burst length.
	Beats int
	// BurstTxns is the number of transactions per active phase.
	BurstTxns int
	// IdleGap is the idle time between active phases.
	IdleGap sim.Cycle
	// Count is the total number of transactions.
	Count int
	// Write makes the traffic writes instead of reads.
	Write bool
	// BeatBytes is the bus beat width (0 = 4); a transaction advances
	// the walk by Beats*BeatBytes.
	BeatBytes int

	issued int
	addr   uint32
}

// Name implements Generator.
func (b *Bursty) Name() string {
	if b.NameStr != "" {
		return b.NameStr
	}
	return "bursty"
}

// Next implements Generator.
func (b *Bursty) Next(prevDone sim.Cycle) (Req, bool) {
	if b.issued >= b.Count {
		return Req{}, false
	}
	if b.issued == 0 {
		b.addr = b.Base
	}
	gap := sim.Cycle(0)
	if b.issued%b.BurstTxns == 0 && b.issued > 0 {
		gap = b.IdleGap
	}
	r := Req{
		At:    prevDone + gap,
		Addr:  b.addr,
		Write: b.Write,
		Burst: beatsFor(b.Beats),
		Beats: b.Beats,
	}
	b.addr += uint32(b.Beats * beatBytes(b.BeatBytes))
	b.issued++
	return r, true
}

// Reset implements Generator.
func (b *Bursty) Reset() { b.issued = 0; b.addr = b.Base }

// Stream issues one transaction per fixed period, like a real-time
// video/audio IP with a hard service deadline per frame slice. If the
// bus falls behind, the next request is issued immediately after the
// previous completes (the stream does not skip work).
type Stream struct {
	// NameStr labels the generator.
	NameStr string
	// Base is the starting address.
	Base uint32
	// Beats is the per-transaction burst length.
	Beats int
	// Period is the issue period in cycles.
	Period sim.Cycle
	// Count is the number of transactions.
	Count int
	// Write makes the stream a producer instead of a consumer.
	Write bool
	// WrapBytes wraps the address walk (0 = no wrap).
	WrapBytes uint32
	// BeatBytes is the bus beat width (0 = 4); a transaction advances
	// the walk by Beats*BeatBytes.
	BeatBytes int

	issued int
	addr   uint32
	nextAt sim.Cycle
}

// Name implements Generator.
func (s *Stream) Name() string {
	if s.NameStr != "" {
		return s.NameStr
	}
	return "stream"
}

// Next implements Generator.
func (s *Stream) Next(prevDone sim.Cycle) (Req, bool) {
	if s.issued >= s.Count {
		return Req{}, false
	}
	if s.issued == 0 {
		s.addr = s.Base
		s.nextAt = 0
	}
	at := sim.MaxCycle(prevDone, s.nextAt)
	s.nextAt += s.Period
	r := Req{
		At:    at,
		Addr:  s.addr,
		Write: s.Write,
		Burst: beatsFor(s.Beats),
		Beats: s.Beats,
	}
	s.addr += uint32(s.Beats * beatBytes(s.BeatBytes))
	if s.WrapBytes > 0 && s.addr >= s.Base+s.WrapBytes {
		s.addr = s.Base
	}
	s.issued++
	return r, true
}

// Reset implements Generator.
func (s *Stream) Reset() { s.issued = 0; s.addr = s.Base; s.nextAt = 0 }

// Script replays a fixed request list; used for directed tests and for
// capturing regression workloads.
type Script struct {
	// NameStr labels the generator.
	NameStr string
	// Reqs is the request list. Req.At is interpreted as an absolute
	// floor: the request is issued at max(prevDone, At).
	Reqs []Req

	pos int
}

// Name implements Generator.
func (s *Script) Name() string {
	if s.NameStr != "" {
		return s.NameStr
	}
	return "script"
}

// Next implements Generator.
func (s *Script) Next(prevDone sim.Cycle) (Req, bool) {
	if s.pos >= len(s.Reqs) {
		return Req{}, false
	}
	r := s.Reqs[s.pos]
	s.pos++
	r.At = sim.MaxCycle(r.At, prevDone)
	return r, true
}

// Reset implements Generator.
func (s *Script) Reset() { s.pos = 0 }
