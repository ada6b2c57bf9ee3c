package memmodel

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroValueReadsZero(t *testing.T) {
	var m Memory
	if m.ByteAt(0x1234) != 0 {
		t.Fatal("unwritten byte should read zero")
	}
	buf := make([]byte, 64)
	m.Read(0xFFFF0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten range should read zero")
		}
	}
}

func TestByteRoundTrip(t *testing.T) {
	m := New()
	m.SetByte(0x100, 0xAB)
	if m.ByteAt(0x100) != 0xAB {
		t.Fatal("byte round trip failed")
	}
	if m.ByteAt(0x101) != 0 {
		t.Fatal("adjacent byte disturbed")
	}
}

func TestBlockCrossingPages(t *testing.T) {
	m := New()
	// Straddle a 4 KiB page boundary.
	addr := uint32(0x1FF8)
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	m.Write(addr, src)
	dst := make([]byte, len(src))
	m.Read(addr, dst)
	if !bytes.Equal(src, dst) {
		t.Fatalf("cross-page round trip: got %v want %v", dst, src)
	}
	if m.PagesAllocated() != 2 {
		t.Fatalf("expected 2 pages allocated, got %d", m.PagesAllocated())
	}
}

func TestWordRoundTrip(t *testing.T) {
	m := New()
	m.WriteWord(0x200, 0xDEADBEEF, 4)
	if got := m.ReadWord(0x200, 4); got != 0xDEADBEEF {
		t.Fatalf("word round trip: %#x", got)
	}
	// Little-endian layout.
	if m.ByteAt(0x200) != 0xEF || m.ByteAt(0x203) != 0xDE {
		t.Fatal("word not little-endian")
	}
	m.WriteWord(0x300, 0x1122334455667788, 8)
	if got := m.ReadWord(0x300, 8); got != 0x1122334455667788 {
		t.Fatalf("8-byte word round trip: %#x", got)
	}
}

func TestSnapshotSorted(t *testing.T) {
	m := New()
	m.SetByte(0x9000, 1)
	m.SetByte(0x1000, 1)
	m.SetByte(0x5000, 1)
	snap := m.Snapshot()
	want := []uint32{0x1000, 0x5000, 0x9000}
	if len(snap) != len(want) {
		t.Fatalf("snapshot %v", snap)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("snapshot %v, want %v", snap, want)
		}
	}
}

func TestEqual(t *testing.T) {
	a, b := New(), New()
	a.Write(0x1ffe, []byte{1, 2, 3, 4})
	b.Write(0x1ffe, []byte{1, 2, 3, 4})
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("same writes, memories differ")
	}
	b.SetByte(0x2fff, 9) // last byte of a shared page
	if a.Equal(b) {
		t.Fatal("differing byte not seen")
	}
	b.SetByte(0x2fff, 0)
	b.SetByte(0x7000, 0) // backs a page a does not have
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("differing footprint not seen")
	}
}

// Property: any sequence of block writes followed by reads returns the
// most recently written data, like a flat array would.
func TestMemoryMatchesFlatArray(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		ref := make([]byte, 1<<16)
		for op := 0; op < 50; op++ {
			addr := uint32(rng.Intn(len(ref) - 256))
			n := rng.Intn(256) + 1
			if rng.Intn(2) == 0 {
				blk := make([]byte, n)
				rng.Read(blk)
				m.Write(addr, blk)
				copy(ref[addr:], blk)
			} else {
				got := make([]byte, n)
				m.Read(addr, got)
				if !bytes.Equal(got, ref[addr:int(addr)+n]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWrite64(b *testing.B) {
	m := New()
	buf := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Write(uint32(i*64)&0xFFFFF, buf)
	}
}
