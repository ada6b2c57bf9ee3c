// Package memmodel provides the sparse byte-addressable backing store
// behind the DDR device model, and the deterministic payload pattern
// every master writes (PatternByte). The paper abstracts the DDR
// datapath in the TLM ("the data path is highly abstracted to increase
// simulation speed"); here the datapath is this store, shared by both
// abstraction levels so end-to-end data integrity can be checked across
// models.
//
// Pattern writes are lazy. WritePattern only appends (master, addr, n)
// to a pending log; every observer (ByteAt, Read, ReadWord, Equal,
// Snapshot, PagesAllocated) and every eager mutator (Write, SetByte,
// WriteWord) first applies the log in order, so the memory reads exactly
// as if each pattern write had been stored when it was made. Release
// drops a pending log unapplied: a run whose memory image nobody reads —
// the transaction-level model behind core.Run — backs no page at all. A
// log that reaches pendingCap entries is applied in place, so a long run
// keeps the eager store's memory bound.
package memmodel

import (
	"sort"
	"sync"
)

const pageShift = 12 // 4 KiB pages
const pageSize = 1 << pageShift
const pageMask = pageSize - 1

// pendingCap is the pending-log length at which WritePattern applies
// the log in place. Every library scenario and the benchmark's speed
// pair stays under it (TestCoreRunOnTLMBacksNoFrame).
const pendingCap = 4096

// pagePool recycles page frames across Memory instances. Simulation
// harnesses construct a fresh Memory per run; without recycling, page
// allocation dominates the allocation profile of short runs (the pages
// are the overwhelming majority of bytes a run allocates). Pages are
// zeroed when returned, so a pooled frame is indistinguishable from a
// fresh one.
var pagePool = sync.Pool{New: func() any { return new([pageSize]byte) }}

// logPool recycles pending logs the same way, so a run's first pattern
// write allocates nothing in steady state.
var logPool = sync.Pool{New: func() any { return new([pendingCap]patternWrite) }}

// patternWrite is one logged WritePattern call.
type patternWrite struct {
	master int32
	addr   uint32
	n      int32
}

// PatternByte is the deterministic payload byte master writes to addr:
// a function of master index and byte address, so end-to-end data
// integrity is checkable across models.
func PatternByte(master int, addr uint32) byte {
	return byte(uint32(master)*31 + addr*7 + (addr >> 8))
}

// FillPattern fills dst with master's payload bytes for the consecutive
// addresses addr, addr+1, ...: PatternByte in incremental form, +7 per
// byte, re-seeded at each 256-byte boundary where the addr>>8 term
// steps.
func FillPattern(dst []byte, master int, addr uint32) {
	for len(dst) > 0 {
		seg := dst[:min(len(dst), 256-int(addr&0xff))]
		v := uint32(master)*31 + addr*7 + (addr >> 8)
		for i := range seg {
			seg[i] = byte(v)
			v += 7
		}
		dst = dst[len(seg):]
		addr += uint32(len(seg))
	}
}

// Memory is a sparse byte-addressable store. The zero value is an empty
// memory in which every byte reads as zero. Memory is not safe for
// concurrent use; the simulators are single-goroutine by design.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	// One-entry page cache: simulated traffic is strongly page-local
	// (sequential bursts, streams), so most accesses skip the map.
	lastKey  uint32
	lastPage *[pageSize]byte
	// log holds the pattern writes not yet stored, oldest first; nil
	// until the first WritePattern (capacity pendingCap, from logPool).
	log []patternWrite
}

// New returns an empty memory. Its page map is made by the first write
// that backs a page, so a memory nothing is stored in costs one
// allocation.
func New() *Memory { return &Memory{} }

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	key := addr >> pageShift
	if m.lastPage != nil && m.lastKey == key {
		return m.lastPage
	}
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint32]*[pageSize]byte)
	}
	p := m.pages[key]
	if p == nil && create {
		p = pagePool.Get().(*[pageSize]byte)
		m.pages[key] = p
	}
	if p != nil {
		m.lastKey, m.lastPage = key, p
	}
	return p
}

// WritePattern records that master writes its payload pattern
// (PatternByte) to the n bytes starting at addr. The bytes are stored
// when something first observes or eagerly mutates the memory.
func (m *Memory) WritePattern(master int, addr uint32, n int) {
	if m.log == nil {
		m.log = logPool.Get().(*[pendingCap]patternWrite)[:0]
	} else if len(m.log) == pendingCap {
		m.apply()
	}
	m.log = append(m.log, patternWrite{master: int32(master), addr: addr, n: int32(n)})
}

// settle stores the pending log; every observer and eager mutator calls
// it first. With nothing pending it is one length test.
func (m *Memory) settle() {
	if len(m.log) > 0 {
		m.apply()
	}
}

// apply stores every logged pattern write in order, straight into the
// page frames one page-run at a time, and empties the log.
func (m *Memory) apply() {
	for _, w := range m.log {
		addr, n := w.addr, int(w.n)
		for n > 0 {
			off := addr & pageMask
			k := min(pageSize-int(off), n)
			FillPattern(m.page(addr, true)[off:int(off)+k], int(w.master), addr)
			addr += uint32(k)
			n -= k
		}
	}
	m.log = m.log[:0]
}

// Release returns every page frame to the shared pool and empties the
// memory, dropping pending pattern writes unstored. Call it when a
// simulation run is finished with its backing store; using the Memory
// afterwards is valid (it reads as all zeroes again). Releasing is what
// makes back-to-back runs — benchmarks, the run farm — allocation-free
// in steady state.
func (m *Memory) Release() {
	if m == nil {
		return
	}
	if m.log != nil {
		logPool.Put((*[pendingCap]patternWrite)(m.log[:pendingCap]))
		m.log = nil
	}
	for k, p := range m.pages {
		*p = [pageSize]byte{}
		pagePool.Put(p)
		delete(m.pages, k)
	}
	m.lastKey, m.lastPage = 0, nil
}

// ByteAt returns the byte at addr (zero if never written).
func (m *Memory) ByteAt(addr uint32) byte {
	m.settle()
	return m.byteAt(addr)
}

func (m *Memory) byteAt(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint32, b byte) {
	m.settle()
	m.setByte(addr, b)
}

func (m *Memory) setByte(addr uint32, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Read fills dst with the bytes starting at addr.
func (m *Memory) Read(addr uint32, dst []byte) {
	m.settle()
	for len(dst) > 0 {
		off := addr & pageMask
		n := pageSize - int(off)
		if n > len(dst) {
			n = len(dst)
		}
		if p := m.page(addr, false); p != nil {
			copy(dst[:n], p[off:int(off)+n])
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += uint32(n)
	}
}

// Write stores src starting at addr.
func (m *Memory) Write(addr uint32, src []byte) {
	m.settle()
	for len(src) > 0 {
		off := addr & pageMask
		n := pageSize - int(off)
		if n > len(src) {
			n = len(src)
		}
		copy(m.page(addr, true)[off:int(off)+n], src[:n])
		src = src[n:]
		addr += uint32(n)
	}
}

// ReadWord returns the little-endian n-byte word at addr (n in 1..8).
func (m *Memory) ReadWord(addr uint32, n int) uint64 {
	m.settle()
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(m.byteAt(addr+uint32(i))) << (8 * i)
	}
	return v
}

// WriteWord stores the little-endian n-byte word v at addr (n in 1..8).
func (m *Memory) WriteWord(addr uint32, v uint64, n int) {
	m.settle()
	for i := 0; i < n; i++ {
		m.setByte(addr+uint32(i), byte(v>>(8*i)))
	}
}

// PagesAllocated returns the number of 4 KiB pages backed by storage.
func (m *Memory) PagesAllocated() int {
	m.settle()
	return len(m.pages)
}

// Equal reports whether both memories back the same pages with the same
// contents.
func (m *Memory) Equal(o *Memory) bool {
	m.settle()
	o.settle()
	if len(m.pages) != len(o.pages) {
		return false
	}
	for k, p := range m.pages {
		if q, ok := o.pages[k]; !ok || *p != *q {
			return false
		}
	}
	return true
}

// Snapshot returns the sorted list of allocated page base addresses;
// useful for debugging footprint in tests.
func (m *Memory) Snapshot() []uint32 {
	m.settle()
	keys := make([]uint32, 0, len(m.pages))
	for k := range m.pages {
		keys = append(keys, k<<pageShift)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
