// Package ddr models the AHB+ DDR memory controller (DDRC): per-bank
// state machines with RTL-accurate timing, a command scheduler in which
// column, row and precharge operations have different priority classes,
// and the bank-interleaving hint path fed by the BI side-band protocol.
//
// Following the paper ("we modeled the FSM as accurate as register
// transfer level. Instead, the data path is highly abstracted"), the
// engine keeps exact cycle timestamps for every timing constraint but
// never simulates the datapath per cycle: both the pin-accurate bus
// model and the TLM consult the same engine as a timing oracle, which is
// what makes the two models structurally consistent.
package ddr

import (
	"fmt"

	"repro/internal/sim"
)

// Timing holds the DDR timing constraints, all in bus clock cycles.
type Timing struct {
	// TRCD is the RAS-to-CAS delay: activate to column command.
	TRCD sim.Cycle
	// TRP is the precharge period: precharge to activate.
	TRP sim.Cycle
	// TCL is the CAS (read) latency: column read to first data.
	TCL sim.Cycle
	// TWL is the write latency: column write to first data.
	TWL sim.Cycle
	// TRAS is the minimum activate-to-precharge time for a bank.
	TRAS sim.Cycle
	// TRC is the minimum activate-to-activate time for the same bank.
	TRC sim.Cycle
	// TWR is the write recovery time: last write data to precharge.
	TWR sim.Cycle
	// TRRD is the minimum activate-to-activate time across banks.
	TRRD sim.Cycle
	// TREFI is the average refresh interval; 0 disables refresh.
	TREFI sim.Cycle
	// TRFC is the refresh cycle time (all banks blocked).
	TRFC sim.Cycle
}

// Validate reports configuration errors that would make the timing
// physically meaningless.
func (t Timing) Validate() error {
	if t.TRC < t.TRAS+t.TRP {
		return fmt.Errorf("ddr: tRC (%d) < tRAS+tRP (%d)", t.TRC, t.TRAS+t.TRP)
	}
	if t.TREFI != 0 && t.TRFC == 0 {
		return fmt.Errorf("ddr: refresh enabled (tREFI=%d) but tRFC is zero", t.TREFI)
	}
	if t.TRCD == 0 || t.TRP == 0 || t.TCL == 0 {
		return fmt.Errorf("ddr: core timings must be nonzero (tRCD=%d tRP=%d tCL=%d)", t.TRCD, t.TRP, t.TCL)
	}
	return nil
}

// DDR266 returns DDR-266 timing at a 133 MHz bus clock, the class of
// device the AHB+ platform of the paper targets.
func DDR266() Timing {
	return Timing{
		TRCD: 3, TRP: 3, TCL: 3, TWL: 1,
		TRAS: 6, TRC: 9, TWR: 2, TRRD: 2,
		TREFI: 1040, TRFC: 9,
	}
}

// DDR333 returns DDR-333 timing at a 166 MHz bus clock.
func DDR333() Timing {
	return Timing{
		TRCD: 3, TRP: 3, TCL: 3, TWL: 1,
		TRAS: 7, TRC: 10, TWR: 3, TRRD: 2,
		TREFI: 1300, TRFC: 11,
	}
}

// NoRefresh returns t with refresh disabled; used by tests that need
// closed-form latency expectations.
func (t Timing) NoRefresh() Timing {
	t.TREFI = 0
	t.TRFC = 0
	return t
}

// AddrMap describes how a flat AHB address decomposes into DDR
// coordinates. Bit layout from LSB: byte offset within a beat, column,
// bank, row. Placing bank bits directly above the column bits means a
// stream that walks past the end of a row lands in the next bank, which
// is what makes bank interleaving effective for streaming masters.
type AddrMap struct {
	// BeatBytesLog2 is log2 of the bus beat width in bytes.
	BeatBytesLog2 uint
	// ColBits is the number of column address bits.
	ColBits uint
	// BankBits is the number of bank address bits (banks = 1<<BankBits).
	BankBits uint
	// RowBits is the number of row address bits.
	RowBits uint
}

// DefaultAddrMap returns the platform default: 32-bit bus, 1 KiB rows
// (8 column bits), 4 banks.
func DefaultAddrMap() AddrMap {
	return AddrMap{BeatBytesLog2: 2, ColBits: 8, BankBits: 2, RowBits: 13}
}

// Banks returns the number of banks addressed by the map.
func (m AddrMap) Banks() int { return 1 << m.BankBits }

// RowBytes returns the number of bytes in one row of one bank.
func (m AddrMap) RowBytes() uint32 { return 1 << (m.ColBits + m.BeatBytesLog2) }

// Capacity returns the total addressable bytes.
func (m AddrMap) Capacity() uint64 {
	return uint64(1) << (m.BeatBytesLog2 + m.ColBits + m.BankBits + m.RowBits)
}

// MaxBankBits bounds the bank count a map may address (32 banks).
const MaxBankBits = 5

// Validate reports a map the platform cannot build: it may address at
// most 1<<MaxBankBits banks, and it must fit the 32-bit AHB address,
// its fields together spanning at most 32 bits and none all 32 alone.
func (m AddrMap) Validate() error {
	span := uint64(0)
	for _, f := range [...]uint{m.BeatBytesLog2, m.ColBits, m.BankBits, m.RowBits} {
		span += uint64(min(f, 33)) // saturate so huge fields cannot wrap the sum
	}
	switch {
	case m.BankBits > MaxBankBits:
		return fmt.Errorf("ddr: address map has %d bank bits, more than %d", m.BankBits, MaxBankBits)
	case span > 32:
		return fmt.Errorf("ddr: address map spans more than the 32-bit address (%d beat + %d column + %d bank + %d row bits)",
			m.BeatBytesLog2, m.ColBits, m.BankBits, m.RowBits)
	case max(m.BeatBytesLog2, m.ColBits, m.RowBits) == 32:
		return fmt.Errorf("ddr: address map gives all 32 address bits to one field")
	}
	return nil
}

// Decode splits addr into bank, row and column coordinates. It masks
// every shift count to five bits, which is exact for a map that passes
// Validate (no field spans 32 bits) and spares each shift the
// compiler's out-of-range guard.
func (m AddrMap) Decode(addr uint32) (bank int, row, col uint32) {
	a := addr >> (m.BeatBytesLog2 & 31)
	col = a & (1<<(m.ColBits&31) - 1)
	a >>= m.ColBits & 31
	bank = int(a & (1<<(m.BankBits&31) - 1))
	a >>= m.BankBits & 31
	row = a & (1<<(m.RowBits&31) - 1)
	return bank, row, col
}

// Encode is the inverse of Decode (byte offset zero).
func (m AddrMap) Encode(bank int, row, col uint32) uint32 {
	a := row
	a = a<<m.BankBits | uint32(bank)
	a = a<<m.ColBits | col
	return a << m.BeatBytesLog2
}
