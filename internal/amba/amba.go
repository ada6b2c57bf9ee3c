// Package amba defines the AMBA2.0 AHB protocol vocabulary shared by
// the pin-accurate model (internal/rtl) and the AHB+ transaction-level
// model (internal/tlm): transfer-type and burst encodings, response
// codes, and the burst address arithmetic of the AHB specification.
//
// Keeping this vocabulary in one package is the first step of the
// paper's TLM procedure ("re-definition of protocol in transaction
// level"): the signal-level protocol of the design spec is mapped onto
// types that both abstraction levels consume, so the two models cannot
// drift apart on protocol arithmetic.
package amba

import "fmt"

// Trans is the AHB HTRANS transfer-type encoding.
type Trans uint8

const (
	// TransIdle indicates no transfer is required.
	TransIdle Trans = iota
	// TransBusy inserts idle beats in the middle of a burst while the
	// master keeps bus ownership.
	TransBusy
	// TransNonSeq is the first transfer of a burst or a single transfer.
	TransNonSeq
	// TransSeq is a continuation beat of a burst.
	TransSeq
)

// String implements fmt.Stringer.
func (t Trans) String() string {
	switch t {
	case TransIdle:
		return "IDLE"
	case TransBusy:
		return "BUSY"
	case TransNonSeq:
		return "NONSEQ"
	case TransSeq:
		return "SEQ"
	}
	return fmt.Sprintf("Trans(%d)", uint8(t))
}

// Burst is the AHB HBURST burst-kind encoding.
type Burst uint8

const (
	// BurstSingle is a single transfer.
	BurstSingle Burst = iota
	// BurstIncr is an incrementing burst of unspecified length.
	BurstIncr
	// BurstWrap4 is a 4-beat wrapping burst.
	BurstWrap4
	// BurstIncr4 is a 4-beat incrementing burst.
	BurstIncr4
	// BurstWrap8 is an 8-beat wrapping burst.
	BurstWrap8
	// BurstIncr8 is an 8-beat incrementing burst.
	BurstIncr8
	// BurstWrap16 is a 16-beat wrapping burst.
	BurstWrap16
	// BurstIncr16 is a 16-beat incrementing burst.
	BurstIncr16
)

// String implements fmt.Stringer.
func (b Burst) String() string {
	switch b {
	case BurstSingle:
		return "SINGLE"
	case BurstIncr:
		return "INCR"
	case BurstWrap4:
		return "WRAP4"
	case BurstIncr4:
		return "INCR4"
	case BurstWrap8:
		return "WRAP8"
	case BurstIncr8:
		return "INCR8"
	case BurstWrap16:
		return "WRAP16"
	case BurstIncr16:
		return "INCR16"
	}
	return fmt.Sprintf("Burst(%d)", uint8(b))
}

// Beats returns the fixed beat count of the burst kind, or 0 for
// BurstIncr whose length is master-defined.
func (b Burst) Beats() int {
	switch b {
	case BurstSingle:
		return 1
	case BurstWrap4, BurstIncr4:
		return 4
	case BurstWrap8, BurstIncr8:
		return 8
	case BurstWrap16, BurstIncr16:
		return 16
	}
	return 0
}

// Wrapping reports whether the burst kind wraps at its size boundary.
func (b Burst) Wrapping() bool {
	switch b {
	case BurstWrap4, BurstWrap8, BurstWrap16:
		return true
	}
	return false
}

// FixedBurstFor returns the fixed-length burst kind for the given beat
// count (wrapping or incrementing), falling back to BurstIncr when the
// count has no fixed encoding.
func FixedBurstFor(beats int, wrapping bool) Burst {
	switch beats {
	case 1:
		return BurstSingle
	case 4:
		if wrapping {
			return BurstWrap4
		}
		return BurstIncr4
	case 8:
		if wrapping {
			return BurstWrap8
		}
		return BurstIncr8
	case 16:
		if wrapping {
			return BurstWrap16
		}
		return BurstIncr16
	}
	return BurstIncr
}

// Resp is the AHB HRESP response encoding.
type Resp uint8

const (
	// RespOkay indicates the transfer completed successfully.
	RespOkay Resp = iota
	// RespError indicates the transfer failed.
	RespError
	// RespRetry asks the master to retry the transfer.
	RespRetry
	// RespSplit releases the master; the slave will signal resumption.
	RespSplit
)

// String implements fmt.Stringer.
func (r Resp) String() string {
	switch r {
	case RespOkay:
		return "OKAY"
	case RespError:
		return "ERROR"
	case RespRetry:
		return "RETRY"
	case RespSplit:
		return "SPLIT"
	}
	return fmt.Sprintf("Resp(%d)", uint8(r))
}

// Size is the AHB HSIZE transfer-size encoding: the transfer moves
// 2^Size bytes per beat.
type Size uint8

const (
	// Size8 transfers one byte per beat.
	Size8 Size = iota
	// Size16 transfers two bytes per beat.
	Size16
	// Size32 transfers four bytes per beat.
	Size32
	// Size64 transfers eight bytes per beat.
	Size64
	// Size128 transfers sixteen bytes per beat.
	Size128
)

// Bytes returns the number of bytes moved per beat.
func (s Size) Bytes() int { return 1 << s }

// String implements fmt.Stringer.
func (s Size) String() string { return fmt.Sprintf("%dbit", 8<<s) }

// SizeForBytes returns the Size encoding for a beat width of n bytes.
// It panics if n is not a power of two in [1,16]; bus widths are static
// configuration, so a bad value is a programming error.
func SizeForBytes(n int) Size {
	switch n {
	case 1:
		return Size8
	case 2:
		return Size16
	case 4:
		return Size32
	case 8:
		return Size64
	case 16:
		return Size128
	}
	panic(fmt.Sprintf("amba: invalid beat width %d bytes", n))
}

// Addr is a 32-bit AHB address.
type Addr = uint32

// BeatAddr returns the address of beat i (0-based) of a burst starting
// at start with the given kind and per-beat size, following the AHB
// wrapping rules: a wrapping burst of n beats wraps at an
// (n * beatBytes)-aligned boundary.
func BeatAddr(start Addr, kind Burst, size Size, i int) Addr {
	step := Addr(size.Bytes())
	if !kind.Wrapping() {
		return start + Addr(i)*step
	}
	n := Addr(kind.Beats())
	boundary := n * step
	base := start &^ (boundary - 1)
	return base + (start+Addr(i)*step-base)%boundary
}

// CrossesBoundary reports whether an incrementing burst of beats beats
// of the given size starting at start crosses a boundary-byte aligned
// address boundary (AHB forbids bursts crossing 1KB boundaries).
func CrossesBoundary(start Addr, size Size, beats int, boundary Addr) bool {
	if beats <= 0 {
		return false
	}
	end := start + Addr(beats)*Addr(size.Bytes()) - 1
	return start/boundary != end/boundary
}

// KB is the AHB 1KB burst address boundary.
const KB Addr = 1024

// ValidateBurst checks the protocol legality of a burst: a positive
// length consistent with the burst kind, the INCR modeling limit,
// address alignment to the transfer size, and the 1KB boundary rule for
// incrementing bursts. Both simulators check every granted transaction
// with it.
func ValidateBurst(addr Addr, burst Burst, size Size, beats int) error {
	if beats <= 0 {
		return fmt.Errorf("amba: txn has %d beats", beats)
	}
	if fb := burst.Beats(); fb != 0 && fb != beats {
		return fmt.Errorf("amba: burst %v requires %d beats, txn has %d", burst, fb, beats)
	}
	if burst == BurstIncr && beats > 16 {
		return fmt.Errorf("amba: INCR burst of %d beats exceeds modeling limit 16", beats)
	}
	step := Addr(size.Bytes())
	if addr%step != 0 {
		return fmt.Errorf("amba: address %#x not aligned to %v", addr, size)
	}
	if !burst.Wrapping() && CrossesBoundary(addr, size, beats, KB) {
		return fmt.Errorf("amba: burst at %#x (%d beats of %v) crosses 1KB boundary", addr, beats, size)
	}
	return nil
}
