// Package sim provides the Cycle timebase both models share and the
// simulation kernels built on it.
//
// Two kernels are provided:
//
//   - Kernel: a two-phase (evaluate/update) cycle-based kernel. Every
//     registered component is evaluated every clock cycle, exactly like
//     the "2-step cycle-based simulation tool" the paper uses for its
//     pin-accurate model. This is deliberately exhaustive and therefore
//     slow: its cost is proportional to simulated cycles times component
//     count.
//
//   - Scheduler: a general cycle-keyed event wheel that skips cycles in
//     which nothing happens.
//
// The method-based TLM (internal/tlm) runs on neither: it calls its own
// next round directly and takes only the Cycle timebase from here, so
// its results are directly comparable with the pin-accurate model's.
package sim

import "fmt"

// Cycle is a point in simulated time, measured in bus clock cycles.
type Cycle uint64

// CycleMax is the largest representable cycle, used as an "infinitely
// far in the future" sentinel.
const CycleMax = Cycle(^uint64(0))

// String implements fmt.Stringer.
func (c Cycle) String() string {
	if c == CycleMax {
		return "∞"
	}
	return fmt.Sprintf("cyc%d", uint64(c))
}

// MaxCycle returns the later of a and b.
func MaxCycle(a, b Cycle) Cycle {
	if a > b {
		return a
	}
	return b
}

// MinCycle returns the earlier of a and b.
func MinCycle(a, b Cycle) Cycle {
	if a < b {
		return a
	}
	return b
}

// AddSat adds d to c, saturating at CycleMax instead of wrapping.
func (c Cycle) AddSat(d Cycle) Cycle {
	s := c + d
	if s < c {
		return CycleMax
	}
	return s
}

// SubFloor subtracts d from c, flooring at 0 instead of wrapping.
func (c Cycle) SubFloor(d Cycle) Cycle {
	if d >= c {
		return 0
	}
	return c - d
}
