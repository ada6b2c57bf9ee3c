package memmodel

import (
	"runtime"
	"testing"
)

// CountNewFrames empties the page pool and counts the page frames it
// has to allocate from then until the test ends: with the pool empty,
// every page any Memory backs is one count.
func CountNewFrames(t testing.TB) *int {
	n := new(int)
	prev := pagePool.New
	pagePool.New = func() any { *n++; return prev() }
	t.Cleanup(func() { pagePool.New = prev })
	// A collection moves a pool's contents to its victim cache and the
	// next one drops them.
	runtime.GC()
	runtime.GC()
	return n
}
