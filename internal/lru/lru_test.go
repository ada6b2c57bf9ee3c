package lru

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refEntry and refIndex are the naive reference: a slice kept hot end
// first, every operation a linear scan.
type refEntry struct {
	key  string
	cost int64
	val  int
}

type refIndex []refEntry

func (r refIndex) find(key string) int {
	return slices.IndexFunc(r, func(e refEntry) bool { return e.key == key })
}

func (r *refIndex) remove(key string) bool {
	i := r.find(key)
	if i < 0 {
		return false
	}
	*r = slices.Delete(*r, i, i+1)
	return true
}

func (r *refIndex) putHot(e refEntry) {
	r.remove(e.key)
	*r = slices.Insert(*r, 0, e)
}

func (r refIndex) cost() (sum int64) {
	for _, e := range r {
		sum += e.cost
	}
	return sum
}

// agree holds the index to the reference: same entries in the same
// recency order, same Len and Cost, same next victim.
func agree(t *testing.T, step int, op string, x *Index[int], ref refIndex) {
	t.Helper()
	var got []refEntry
	for e := range x.All() {
		got = append(got, refEntry{e.Key, e.Cost, e.Value})
	}
	if !slices.Equal(got, []refEntry(ref)) {
		t.Fatalf("step %d (%s): order\n got %v\nwant %v", step, op, got, ref)
	}
	if x.Len() != len(ref) || x.Cost() != ref.cost() {
		t.Fatalf("step %d (%s): Len %d Cost %d, want %d and %d", step, op, x.Len(), x.Cost(), len(ref), ref.cost())
	}
	victim, ok := x.Oldest()
	if ok != (len(ref) > 0) || (ok && victim.Key != ref[len(ref)-1].key) {
		t.Fatalf("step %d (%s): victim %q (%v), reference %v", step, op, victim.Key, ok, ref)
	}
}

func TestIndexAgreesWithTheSliceReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := NewIndex[int]()
		var ref refIndex
		budget := int64(200 + rng.Intn(400))
		for step := 0; step < 2000; step++ {
			// A small key space, so replaces, hits and misses all occur.
			key := fmt.Sprintf("k%02d", rng.Intn(24))
			i := ref.find(key)
			var op string
			switch rng.Intn(6) {
			case 0: // lookup with touch
				op = "get " + key
				e, ok := x.Get(key)
				if ok != (i >= 0) || (ok && (e.Key != key || e.Cost != ref[i].cost || e.Value != ref[i].val)) {
					t.Fatalf("seed %d step %d (%s): got %+v, %v; reference %v", seed, step, op, e, ok, ref)
				}
				if ok {
					ref.putHot(ref[i])
				}
			case 1: // lookup without touch
				op = "peek " + key
				e, ok := x.Peek(key)
				if ok != (i >= 0) || (ok && (e.Cost != ref[i].cost || e.Value != ref[i].val)) {
					t.Fatalf("seed %d step %d (%s): got %+v, %v; reference %v", seed, step, op, e, ok, ref)
				}
			case 2, 3: // insert or replace at the hot end
				op = "put " + key
				e := refEntry{key, int64(1 + rng.Intn(90)), step}
				x.Put(e.key, e.cost, e.val)
				ref.putHot(e)
			case 4:
				op = "remove " + key
				if x.Remove(key) != ref.remove(key) {
					t.Fatalf("seed %d step %d (%s): presence disagrees with the reference", seed, step, op)
				}
			case 5: // the owner's eviction loop
				op = "evict"
				for x.Cost() > budget {
					victim, _ := x.Oldest()
					x.Remove(victim.Key)
				}
				for ref.cost() > budget {
					ref = ref[:len(ref)-1]
				}
			}
			agree(t, step, fmt.Sprintf("seed %d: %s", seed, op), x, ref)
		}
	}
}

func TestIndexIterationStopsEarly(t *testing.T) {
	x := NewIndex[int]()
	for i := range 5 {
		x.Put(fmt.Sprint(i), 1, i)
	}
	var seen []string
	for e := range x.All() {
		seen = append(seen, e.Key)
		if len(seen) == 2 {
			break
		}
	}
	if !slices.Equal(seen, []string{"4", "3"}) {
		t.Fatalf("saw %v, want the two hottest", seen)
	}
}

func TestCacheBounds(t *testing.T) {
	body := func(n int) []byte { return bytes.Repeat([]byte("b"), n) }

	// Byte budget: evicts from the cold end, a touched entry outlives
	// colder ones, a replace is charged its new size.
	c := NewCache(300, 0)
	for i := range 5 {
		c.Put(fmt.Sprint(i), body(100))
	}
	if c.Bytes() != 300 || c.Len() != 3 || !slices.Equal(c.Keys(), []string{"4", "3", "2"}) {
		t.Fatalf("after five 100-byte puts into 300: %d bytes, keys %v", c.Bytes(), c.Keys())
	}
	if _, ok := c.Get("2"); !ok {
		t.Fatal("entry 2 should be resident")
	}
	c.Put("5", body(100))
	if !slices.Equal(c.Keys(), []string{"5", "2", "4"}) {
		t.Fatalf("keys %v: the touched entry must outlive the colder one", c.Keys())
	}
	c.Put("4", body(150))
	if got, _ := c.Get("4"); len(got) != 150 || c.Bytes() != 250 || c.Len() != 2 {
		t.Fatalf("replace in place: %d bytes over %d entries, body %d", c.Bytes(), c.Len(), len(got))
	}

	// A body over the whole budget is not held — nor is what it replaced.
	c.Put("4", body(301))
	if _, ok := c.Get("4"); ok || c.Bytes() != 100 {
		t.Fatalf("oversized body: held=%v, %d bytes resident", ok, c.Bytes())
	}
	c.Remove("5")
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after removing the last entry: %d entries, %d bytes", c.Len(), c.Bytes())
	}

	// Entry cap and byte budget together: whichever binds first.
	both := NewCache(250, 2)
	both.Put("a", body(10))
	both.Put("b", body(10))
	both.Put("c", body(10))
	if !slices.Equal(both.Keys(), []string{"c", "b"}) {
		t.Fatalf("entry cap: keys %v", both.Keys())
	}
	both.Put("d", body(245))
	if !slices.Equal(both.Keys(), []string{"d"}) {
		t.Fatalf("byte budget under an entry cap: keys %v", both.Keys())
	}

	// No bound at all: nothing is evicted.
	free := NewCache(0, 0)
	for i := range 100 {
		free.Put(fmt.Sprint(i), body(1000))
	}
	if free.Len() != 100 {
		t.Fatalf("unbounded cache holds %d of 100", free.Len())
	}
}

func TestCacheConcurrentUse(t *testing.T) {
	// Run with -race: many goroutines over a key space larger than the
	// cache, so gets, replaces, evictions and enumerations interleave.
	c := NewCache(4000, 50)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				key := fmt.Sprintf("k%03d", rng.Intn(200))
				switch rng.Intn(10) {
				case 0:
					c.Remove(key)
				case 1:
					if n := len(c.Keys()); n > 50 {
						t.Errorf("%d keys over the entry cap", n)
					}
				case 2, 3, 4:
					c.Put(key, bytes.Repeat([]byte(key[3:]), 1+rng.Intn(60)))
				default:
					if body, ok := c.Get(key); ok && !bytes.HasPrefix(body, []byte(key[3:])) {
						t.Errorf("key %s served another key's body %q", key, body)
					}
				}
				if b := c.Bytes(); b > 4000 {
					t.Errorf("%d bytes over the budget", b)
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() > 50 || c.Bytes() > 4000 {
		t.Fatalf("final state %d entries / %d bytes breaks a bound", c.Len(), c.Bytes())
	}
}
