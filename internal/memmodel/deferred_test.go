package memmodel

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// The reference window: four pages starting at a page boundary, so
// pattern runs cross into neighbouring pages and the footprint has
// several pages to get wrong.
const (
	refBase = 0x3000
	refSpan = 4 * pageSize
)

// opReader turns fuzz bytes into operation arguments; an exhausted
// input reads as zeroes.
type opReader struct{ data []byte }

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *opReader) u16() int { return int(r.byte()) | int(r.byte())<<8 }

// span draws an address in the window and a length of at most limit bytes
// that stays inside it.
func (r *opReader) span(limit int) (uint32, int) {
	off := r.u16() % refSpan
	return uint32(refBase + off), r.u16() % (min(limit, refSpan-off) + 1)
}

// deferredRef runs one interleaving of operations against three stores:
// m and twin take pattern writes lazily (twin is only observed through
// Equal, so its log is pending whenever m's is), eager stores every
// pattern write as plain bytes through Write, and flat is the window as
// a flat array with the set of pages any write touched.
type deferredRef struct {
	m, twin, eager *Memory
	flat           []byte
	touched        map[uint32]bool
}

func (d *deferredRef) mark(addr uint32, n int) {
	for a := addr &^ pageMask; n > 0 && a < addr+uint32(n); a += pageSize {
		d.touched[a] = true
	}
}

func (d *deferredRef) pattern(master int, addr uint32, n int) {
	d.m.WritePattern(master, addr, n)
	d.twin.WritePattern(master, addr, n)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = PatternByte(master, addr+uint32(i))
	}
	d.eager.Write(addr, buf)
	copy(d.flat[addr-refBase:], buf)
	d.mark(addr, n)
}

func (d *deferredRef) write(addr uint32, src []byte) {
	d.m.Write(addr, src)
	d.twin.Write(addr, src)
	d.eager.Write(addr, src)
	copy(d.flat[addr-refBase:], src)
	d.mark(addr, len(src))
}

// footprint requires every store to back exactly the touched pages.
func (d *deferredRef) footprint() error {
	want := make([]uint32, 0, len(d.touched))
	for a := range d.touched {
		want = append(want, a)
	}
	slices.Sort(want)
	if got := d.m.PagesAllocated(); got != len(want) {
		return fmt.Errorf("PagesAllocated %d, reference %d", got, len(want))
	}
	for _, s := range []*Memory{d.m, d.twin, d.eager} {
		if got := s.Snapshot(); !slices.Equal(got, want) {
			return fmt.Errorf("Snapshot %#x, reference %#x", got, want)
		}
	}
	return nil
}

// checkDeferred interprets data as a sequence of operations and
// requires the lazy store to read like the eager references after every
// one of them.
func checkDeferred(data []byte) error {
	d := &deferredRef{m: New(), twin: New(), eager: New(), flat: make([]byte, refSpan), touched: map[uint32]bool{}}
	r := &opReader{data: data}
	for step := 0; len(r.data) > 0; step++ {
		switch op := r.byte() % 10; op {
		case 0: // a pattern run, often across pages
			addr, n := r.span(3 * pageSize)
			d.pattern(int(r.byte()%5), addr, n)
		case 1:
			addr, n := r.span(512)
			seed := r.byte()
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = seed + byte(i*13)
			}
			d.write(addr, buf)
		case 2:
			addr, _ := r.span(0)
			b := r.byte()
			d.m.SetByte(addr, b)
			d.twin.SetByte(addr, b)
			d.eager.SetByte(addr, b)
			d.flat[addr-refBase] = b
			d.mark(addr, 1)
		case 3:
			addr, k := r.span(8)
			k = max(k, 1) // span leaves room for at least one byte
			v := uint64(r.u16())*0x9E3779B97F4A7C15 + uint64(step)
			d.m.WriteWord(addr, v, k)
			d.twin.WriteWord(addr, v, k)
			d.eager.WriteWord(addr, v, k)
			for i := 0; i < k; i++ {
				d.flat[int(addr-refBase)+i] = byte(v >> (8 * i))
			}
			d.mark(addr, k)
		case 4:
			addr, n := r.span(3 * pageSize)
			got := make([]byte, n)
			d.m.Read(addr, got)
			if want := d.flat[addr-refBase : int(addr-refBase)+n]; !bytes.Equal(got, want) {
				return fmt.Errorf("step %d: Read(%#x, %d) differs from the reference", step, addr, n)
			}
		case 5:
			addr, _ := r.span(0)
			if got, want := d.m.ByteAt(addr), d.flat[addr-refBase]; got != want {
				return fmt.Errorf("step %d: ByteAt(%#x) = %#x, reference %#x", step, addr, got, want)
			}
		case 6:
			addr, k := r.span(8)
			var want uint64
			for i := 0; i < k; i++ {
				want |= uint64(d.flat[int(addr-refBase)+i]) << (8 * i)
			}
			if got := d.m.ReadWord(addr, k); got != want {
				return fmt.Errorf("step %d: ReadWord(%#x, %d) = %#x, reference %#x", step, addr, k, got, want)
			}
		case 7: // twin first, while both logs may be pending
			if !d.twin.Equal(d.m) || !d.m.Equal(d.eager) || !d.eager.Equal(d.m) {
				return fmt.Errorf("step %d: Equal says the stores differ", step)
			}
			if err := d.footprint(); err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
		case 8:
			if r.byte()%4 != 0 {
				continue
			}
			for _, s := range []*Memory{d.m, d.twin, d.eager} {
				s.Release()
			}
			clear(d.flat)
			clear(d.touched)
		case 9: // a flood of short pattern writes past the log bound
			if r.byte()%4 != 0 {
				continue
			}
			salt := r.u16()
			for i := 0; i < pendingCap+int(r.byte()); i++ {
				off := (i*97 + salt) % (refSpan - 8)
				d.pattern(i%3, uint32(refBase+off), 1+i%8)
			}
		}
	}
	got := make([]byte, refSpan)
	d.m.Read(refBase, got)
	if !bytes.Equal(got, d.flat) {
		return fmt.Errorf("final image differs from the reference")
	}
	return d.footprint()
}

// Property: any interleaving of lazy pattern writes, eager writes,
// reads, comparisons and releases reads, byte for byte and page for
// page, like the same writes stored eagerly.
func TestDeferredWritesMatchEagerReference(t *testing.T) {
	f := func(seed int64) bool {
		data := make([]byte, 1500)
		rand.New(rand.NewSource(seed)).Read(data)
		if err := checkDeferred(data); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func FuzzDeferredWrites(f *testing.F) {
	f.Add([]byte{0, 0xf0, 0x0f, 0x00, 0x30, 1, 4, 0xe0, 0x0f, 0x40, 0x00}) // a pattern run across a page boundary, read back
	f.Add([]byte{9, 0, 7, 0, 3, 7, 4, 0, 0, 0xff, 0x3f})                   // log overflow, then compare and read
	f.Add([]byte{0, 0, 0, 0, 0x20, 2, 8, 0, 5, 0x10, 0x00, 7})             // release with a pending log
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 400)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkDeferred(data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReleaseWithPendingLogBacksNoFrame(t *testing.T) {
	frames := CountNewFrames(t)
	m := New()
	m.WritePattern(1, 0x1ff0, 3*pageSize) // four pages' worth, unapplied
	if len(m.pages) != 0 {
		t.Fatalf("a pattern write backed %d pages before anything observed it", len(m.pages))
	}
	m.Release()
	if *frames != 0 || len(m.pages) != 0 {
		t.Fatalf("release with a pending log backed %d new frames, %d pages", *frames, len(m.pages))
	}
	if m.ByteAt(0x2000) != 0 || m.PagesAllocated() != 0 {
		t.Fatal("a released pattern write is still visible")
	}
}

func TestPendingLogOverflowAppliesInPlace(t *testing.T) {
	m := New()
	for i := 0; i <= pendingCap; i++ {
		m.WritePattern(0, uint32(i)*4, 4)
	}
	// The first pendingCap writes cover 16 KiB; the last one is pending.
	if len(m.log) != 1 || len(m.pages) != pendingCap*4/pageSize {
		t.Fatalf("after overflow: %d pending, %d pages", len(m.log), len(m.pages))
	}
	if got, want := m.ByteAt(pendingCap*4+3), PatternByte(0, pendingCap*4+3); got != want {
		t.Fatalf("last write reads %#x, want %#x", got, want)
	}
}
