package amba

import (
	"testing"
	"testing/quick"
)

func TestBurstBeats(t *testing.T) {
	cases := []struct {
		b    Burst
		want int
	}{
		{BurstSingle, 1}, {BurstIncr, 0},
		{BurstWrap4, 4}, {BurstIncr4, 4},
		{BurstWrap8, 8}, {BurstIncr8, 8},
		{BurstWrap16, 16}, {BurstIncr16, 16},
	}
	for _, c := range cases {
		if got := c.b.Beats(); got != c.want {
			t.Errorf("%v.Beats() = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestBurstWrapping(t *testing.T) {
	wrapping := map[Burst]bool{
		BurstWrap4: true, BurstWrap8: true, BurstWrap16: true,
		BurstSingle: false, BurstIncr: false, BurstIncr4: false,
		BurstIncr8: false, BurstIncr16: false,
	}
	for b, want := range wrapping {
		if got := b.Wrapping(); got != want {
			t.Errorf("%v.Wrapping() = %v, want %v", b, got, want)
		}
	}
}

func TestFixedBurstFor(t *testing.T) {
	if FixedBurstFor(4, true) != BurstWrap4 || FixedBurstFor(4, false) != BurstIncr4 {
		t.Fatal("4-beat mapping wrong")
	}
	if FixedBurstFor(8, true) != BurstWrap8 || FixedBurstFor(16, false) != BurstIncr16 {
		t.Fatal("8/16-beat mapping wrong")
	}
	if FixedBurstFor(1, false) != BurstSingle {
		t.Fatal("single mapping wrong")
	}
	if FixedBurstFor(5, false) != BurstIncr || FixedBurstFor(3, true) != BurstIncr {
		t.Fatal("odd lengths must fall back to INCR")
	}
}

func TestBeatAddrIncrementing(t *testing.T) {
	// INCR4 of 32-bit beats from 0x100: 0x100,0x104,0x108,0x10C.
	for i, want := range []Addr{0x100, 0x104, 0x108, 0x10c} {
		if got := BeatAddr(0x100, BurstIncr4, Size32, i); got != want {
			t.Errorf("beat %d: %#x, want %#x", i, got, want)
		}
	}
}

func TestBeatAddrWrapping(t *testing.T) {
	// WRAP4 of 32-bit beats from 0x38 wraps at a 16-byte boundary:
	// 0x38,0x3C,0x30,0x34 (AMBA spec example style).
	for i, want := range []Addr{0x38, 0x3c, 0x30, 0x34} {
		if got := BeatAddr(0x38, BurstWrap4, Size32, i); got != want {
			t.Errorf("WRAP4 beat %d: %#x, want %#x", i, got, want)
		}
	}
	// WRAP8 of 16-bit beats from 0x34 wraps at a 16-byte boundary.
	want8 := []Addr{0x34, 0x36, 0x38, 0x3a, 0x3c, 0x3e, 0x30, 0x32}
	for i, want := range want8 {
		if got := BeatAddr(0x34, BurstWrap8, Size16, i); got != want {
			t.Errorf("WRAP8 beat %d: %#x, want %#x", i, got, want)
		}
	}
}

// Property: wrapping bursts visit exactly the addresses of the aligned
// window, each once; incrementing bursts are strictly ascending by the
// beat size.
func TestBeatAddrProperties(t *testing.T) {
	wrap := func(startRaw uint32, kindSel, sizeSel uint8) bool {
		kinds := []Burst{BurstWrap4, BurstWrap8, BurstWrap16}
		sizes := []Size{Size8, Size16, Size32, Size64}
		kind := kinds[int(kindSel)%len(kinds)]
		size := sizes[int(sizeSel)%len(sizes)]
		step := Addr(size.Bytes())
		start := (Addr(startRaw) &^ (step - 1)) & 0xFFFF
		n := kind.Beats()
		window := Addr(n) * step
		base := start &^ (window - 1)
		seen := map[Addr]bool{}
		for i := 0; i < n; i++ {
			a := BeatAddr(start, kind, size, i)
			if a < base || a >= base+window {
				return false
			}
			if a%step != 0 {
				return false
			}
			if seen[a] {
				return false
			}
			seen[a] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(wrap, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatalf("wrapping burst property: %v", err)
	}

	incr := func(startRaw uint32, beatsRaw, sizeSel uint8) bool {
		sizes := []Size{Size8, Size16, Size32, Size64}
		size := sizes[int(sizeSel)%len(sizes)]
		step := Addr(size.Bytes())
		start := (Addr(startRaw) &^ (step - 1)) & 0xFFFF
		beats := int(beatsRaw%16) + 1
		for i := 0; i < beats; i++ {
			if BeatAddr(start, BurstIncr, size, i) != start+Addr(i)*step {
				return false
			}
		}
		return true
	}
	if err := quick.Check(incr, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatalf("incrementing burst property: %v", err)
	}
}

func TestCrossesBoundary(t *testing.T) {
	if CrossesBoundary(0x3F0, Size32, 4, KB) {
		t.Fatal("burst ending at 0x3FF must not cross 1KB")
	}
	if !CrossesBoundary(0x3F4, Size32, 4, KB) {
		t.Fatal("burst ending at 0x403 must cross 1KB")
	}
	if CrossesBoundary(0x400, Size32, 1, KB) {
		t.Fatal("single beat at boundary start does not cross")
	}
	if CrossesBoundary(0, Size32, 0, KB) {
		t.Fatal("zero beats never crosses")
	}
}

func TestSizeEncoding(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		if SizeForBytes(n).Bytes() != n {
			t.Errorf("SizeForBytes(%d) round-trip failed", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SizeForBytes(3) should panic")
		}
	}()
	SizeForBytes(3)
}

func TestValidateBurst(t *testing.T) {
	if err := ValidateBurst(0x100, BurstIncr4, Size32, 4); err != nil {
		t.Fatalf("valid burst rejected: %v", err)
	}
	cases := []struct {
		name  string
		addr  Addr
		burst Burst
		beats int
	}{
		{"zero beats", 0, BurstSingle, 0},
		{"beat mismatch", 0, BurstIncr4, 5},
		{"misaligned", 0x102, BurstSingle, 1},
		{"1KB crossing", 0x3F8, BurstIncr4, 4},
		{"incr too long", 0, BurstIncr, 32},
	}
	for _, c := range cases {
		if ValidateBurst(c.addr, c.burst, Size32, c.beats) == nil {
			t.Errorf("%s: ValidateBurst accepted an illegal burst", c.name)
		}
	}
}

func TestStringers(t *testing.T) {
	for _, v := range []interface{ String() string }{
		TransIdle, TransBusy, TransNonSeq, TransSeq, Trans(99),
		BurstSingle, BurstIncr, BurstWrap16, Burst(99),
		RespOkay, RespError, RespRetry, RespSplit, Resp(99),
		Size8, Size32,
	} {
		if v.String() == "" {
			t.Errorf("%T has empty String()", v)
		}
	}
}
