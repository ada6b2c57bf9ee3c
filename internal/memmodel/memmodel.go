// Package memmodel provides the sparse byte-addressable backing store
// behind the DDR device model. The paper abstracts the DDR datapath in
// the TLM ("the data path is highly abstracted to increase simulation
// speed"); here the datapath is this store, shared by both abstraction
// levels so end-to-end data integrity can be checked across models.
package memmodel

import (
	"sort"
	"sync"
)

const pageShift = 12 // 4 KiB pages
const pageSize = 1 << pageShift
const pageMask = pageSize - 1

// pagePool recycles page frames across Memory instances. Simulation
// harnesses construct a fresh Memory per run; without recycling, page
// allocation dominates the allocation profile of short runs (the pages
// are the overwhelming majority of bytes a run allocates). Pages are
// zeroed when returned, so a pooled frame is indistinguishable from a
// fresh one.
var pagePool = sync.Pool{New: func() any { return new([pageSize]byte) }}

// Memory is a sparse byte-addressable store. The zero value is an empty
// memory in which every byte reads as zero. Memory is not safe for
// concurrent use; the simulators are single-goroutine by design.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	// One-entry page cache: simulated traffic is strongly page-local
	// (sequential bursts, streams), so most accesses skip the map.
	lastKey  uint32
	lastPage *[pageSize]byte
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

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

// Release returns every page frame to the shared pool and empties the
// memory. Call it when a simulation run is finished with its backing
// store; using the Memory afterwards is valid (it reads as all zeroes
// again). Releasing is what makes back-to-back runs — benchmarks, the
// run farm — allocation-free in steady state.
func (m *Memory) Release() {
	if m == nil {
		return
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
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint32, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Read fills dst with the bytes starting at addr.
func (m *Memory) Read(addr uint32, dst []byte) {
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
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(m.ByteAt(addr+uint32(i))) << (8 * i)
	}
	return v
}

// WriteWord stores the little-endian n-byte word v at addr (n in 1..8).
func (m *Memory) WriteWord(addr uint32, v uint64, n int) {
	for i := 0; i < n; i++ {
		m.SetByte(addr+uint32(i), byte(v>>(8*i)))
	}
}

// PagesAllocated returns the number of 4 KiB pages backed by storage.
func (m *Memory) PagesAllocated() int { return len(m.pages) }

// Equal reports whether both memories back the same pages with the same
// contents.
func (m *Memory) Equal(o *Memory) bool {
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
	keys := make([]uint32, 0, len(m.pages))
	for k := range m.pages {
		keys = append(keys, k<<pageShift)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
