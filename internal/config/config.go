// Package config collects the platform parameters of the AHB+ model.
// The paper emphasizes parameterization for flexibility and reuse
// (§3.7): bus width, write-buffer depth and on/off, arbitration
// algorithm on/off, real-time/non-real-time master type, and QoS value
// are all runtime configuration here, with JSON round-tripping for
// experiment definitions.
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/arb"
	"repro/internal/check"
	"repro/internal/ddr"
	"repro/internal/qos"
	"repro/internal/sim"
)

// MasterCfg is the per-master platform configuration.
type MasterCfg struct {
	// Name labels the master in reports.
	Name string `json:"name"`
	// RealTime selects the RT service class.
	RealTime bool `json:"real_time"`
	// QoSObjective is the latency objective in cycles (required for RT).
	QoSObjective uint64 `json:"qos_objective,omitempty"`
	// BandwidthQuota is the reserved bandwidth share in [0,1].
	BandwidthQuota float64 `json:"bandwidth_quota,omitempty"`
}

// Reg converts the master configuration to its QoS register value.
func (m MasterCfg) Reg() qos.Reg {
	r := qos.Reg{Objective: sim.Cycle(m.QoSObjective), Quota: m.BandwidthQuota}
	if m.RealTime {
		r.Class = qos.RT
	}
	return r
}

// SRAMCfg describes an optional on-chip SRAM slave mapped beside the
// DDR region; it gives the platform the multi-slave topology
// flexibility the paper lists among communication-architecture model
// requirements (§1).
type SRAMCfg struct {
	// Enabled turns the slave on.
	Enabled bool `json:"enabled"`
	// Base is the region base address (must lie above the DDR region).
	Base uint32 `json:"base"`
	// Size is the region size in bytes.
	Size uint32 `json:"size"`
	// WaitStates is the fixed access latency before the first beat.
	WaitStates uint64 `json:"wait_states"`
}

// Contains reports whether addr falls in the SRAM region.
func (s SRAMCfg) Contains(addr uint32) bool {
	return s.Enabled && addr >= s.Base && addr-s.Base < s.Size
}

// Params is the full platform configuration shared by the RTL model and
// the TLM.
type Params struct {
	// BusBytes is the data bus width in bytes (4 = AHB 32-bit).
	BusBytes int `json:"bus_bytes"`
	// Masters configures the master ports.
	Masters []MasterCfg `json:"masters"`
	// WriteBufferDepth is the write-buffer capacity in transactions;
	// 0 disables the buffer.
	WriteBufferDepth int `json:"write_buffer_depth"`
	// Pipelining enables AHB+ request pipelining.
	Pipelining bool `json:"pipelining"`
	// BIEnabled enables the BI side-band interface (bank interleaving
	// hints, permission, idle-bank reports).
	BIEnabled bool `json:"bi_enabled"`
	// BILatency is the BI pipeline latency in cycles.
	BILatency uint64 `json:"bi_latency"`
	// Filters selects the active arbitration filters.
	Filters arb.Enabled `json:"filters"`
	// UrgencyThreshold is the QoS slack below which requests are urgent.
	UrgencyThreshold uint64 `json:"urgency_threshold"`
	// DDR is the memory timing set.
	DDR ddr.Timing `json:"ddr"`
	// AddrMap is the DDR address decomposition.
	AddrMap ddr.AddrMap `json:"addr_map"`
	// SRAM optionally maps an on-chip SRAM slave beside the DDR.
	SRAM SRAMCfg `json:"sram,omitempty"`
	// ClosedPage selects the DDRC's auto-precharge row policy instead
	// of the default open-page policy.
	ClosedPage bool `json:"closed_page,omitempty"`
	// MaxCycles caps the simulation (0 = no cap).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
}

// Default returns the paper-like platform: 32-bit bus, 8-deep write
// buffer, all seven filters, request pipelining and BI on, DDR-266.
func Default(masters int) Params {
	p := Params{
		BusBytes:         4,
		WriteBufferDepth: 8,
		Pipelining:       true,
		BIEnabled:        true,
		BILatency:        1,
		Filters:          arb.AllEnabled(),
		UrgencyThreshold: 16,
		DDR:              ddr.DDR266(),
		AddrMap:          ddr.DefaultAddrMap(),
	}
	for i := 0; i < masters; i++ {
		p.Masters = append(p.Masters, MasterCfg{Name: fmt.Sprintf("m%d", i)})
	}
	return p
}

// MaxMasters caps the master-port count; an AHB-class arbiter decodes
// a fixed request/grant vector, and the paper's platforms stay in the
// single digits.
const MaxMasters = 16

// Validate reports configuration errors. Unlike a hardware elaboration
// failure it does not stop at the first defect: every problem in the
// parameter set is collected and reported in one descriptive error, so
// a caller submitting a malformed platform (e.g. through the spec
// service) sees the full repair list at once.
func (p *Params) Validate() error {
	var errs check.Errors
	switch p.BusBytes {
	case 1, 2, 4, 8, 16:
	default:
		errs.Addf("config: bus width %d bytes is not a power of two in [1,16]", p.BusBytes)
	}
	switch {
	case len(p.Masters) == 0:
		errs.Addf("config: at least one master required")
	case len(p.Masters) > MaxMasters:
		errs.Addf("config: %d masters exceed the %d-port arbiter", len(p.Masters), MaxMasters)
	}
	if p.WriteBufferDepth < 0 {
		errs.Addf("config: negative write buffer depth %d", p.WriteBufferDepth)
	}
	names := make(map[string]int, len(p.Masters))
	for i, m := range p.Masters {
		if err := m.Reg().Validate(); err != nil {
			errs.Addf("config: master %d (%s): %v", i, m.Name, err)
		}
		if m.Name != "" {
			if j, dup := names[m.Name]; dup {
				errs.Addf("config: masters %d and %d share the name %q", j, i, m.Name)
			} else {
				names[m.Name] = i
			}
		}
	}
	if err := p.DDR.Validate(); err != nil {
		errs.Addf("config: %v", err)
	}
	if err := p.AddrMap.Validate(); err != nil {
		errs.Addf("config: %v", err)
	}
	if p.SRAM.Enabled {
		if p.SRAM.Size == 0 {
			errs.Addf("config: SRAM enabled with zero size")
		}
		if uint64(p.SRAM.Base) < p.AddrMap.Capacity() {
			errs.Addf("config: SRAM base %#x overlaps the DDR region (capacity %#x)",
				p.SRAM.Base, p.AddrMap.Capacity())
		}
	}
	return errs.Err()
}

// PlainAHB returns a platform configured as a plain AMBA2.0 AHB: no
// write buffer, no request pipelining, no BI side-band, and
// round-robin-only arbitration. It is the baseline the AHB+ extensions
// are measured against (the paper's §2 motivation: AMBA2.0 "cannot
// guarantee master's QoS").
func PlainAHB(masters int) Params {
	p := Default(masters)
	p.WriteBufferDepth = 0
	p.Pipelining = false
	p.BIEnabled = false
	p.Filters = arb.Enabled{} // round-robin tie-break only
	return p
}

// QoSRegs returns the per-master QoS registers.
func (p *Params) QoSRegs() []qos.Reg {
	regs := make([]qos.Reg, len(p.Masters))
	for i, m := range p.Masters {
		regs[i] = m.Reg()
	}
	return regs
}

// MarshalJSONIndent renders the parameters as indented JSON.
func (p *Params) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Load reads parameters from a JSON file and validates them.
func Load(path string) (Params, error) {
	var p Params
	b, err := os.ReadFile(path)
	if err != nil {
		return p, fmt.Errorf("config: %w", err)
	}
	if err := json.Unmarshal(b, &p); err != nil {
		return p, fmt.Errorf("config: parsing %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// Save writes the parameters to a JSON file.
func (p *Params) Save(path string) error {
	b, err := p.MarshalJSONIndent()
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
