// Package qos implements the AHB+ quality-of-service registers: the
// "special internal registers" the paper describes, which hold each
// master's QoS objective value and its real-time / non-real-time type,
// and the objective test a finished transaction is judged by.
package qos

import (
	"fmt"

	"repro/internal/sim"
)

// Class is a master's service class.
type Class uint8

const (
	// NRT is a non-real-time (best effort) master.
	NRT Class = iota
	// RT is a real-time master with a latency objective.
	RT
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case NRT:
		return "NRT"
	case RT:
		return "RT"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Reg is the per-master QoS register pair: class type and objective
// value (the maximum request-to-first-data latency, in cycles, the bus
// should guarantee). An Objective of 0 on an NRT master means "no
// objective".
type Reg struct {
	Class     Class
	Objective sim.Cycle
	// Quota is the master's relative bandwidth share used by the
	// bandwidth arbitration filter; 0 means no reservation.
	Quota float64
}

// MaxObjective bounds the latency objective a QoS register accepts.
// An objective beyond it cannot be met by any realizable platform and
// almost certainly indicates a units mistake in the configuration.
const MaxObjective sim.Cycle = 1 << 30

// Validate reports nonsensical register settings.
func (r Reg) Validate() error {
	if r.Class == RT && r.Objective == 0 {
		return fmt.Errorf("qos: RT master requires a nonzero objective")
	}
	if r.Objective > MaxObjective {
		return fmt.Errorf("qos: objective %d cycles out of range (max %d)", r.Objective, MaxObjective)
	}
	if r.Quota < 0 || r.Quota > 1 {
		return fmt.Errorf("qos: quota %f outside [0,1]", r.Quota)
	}
	return nil
}

// Slack returns the remaining cycles before the objective is violated
// for a request that has been waiting since reqSince. For masters with
// no objective it returns sim.CycleMax.
func (r Reg) Slack(now, reqSince sim.Cycle) sim.Cycle {
	if r.Objective == 0 {
		return sim.CycleMax
	}
	waited := now.SubFloor(reqSince)
	return r.Objective.SubFloor(waited)
}

// Missed reports whether a request-to-first-data latency of lat cycles
// misses the objective. A register with no objective never misses.
func (r Reg) Missed(lat sim.Cycle) bool { return r.Objective != 0 && lat > r.Objective }
