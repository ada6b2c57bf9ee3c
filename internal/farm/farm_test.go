package farm

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	out := Map(4, 100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	Do(workers, 64, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, bound %d", p, workers)
	}
}

func TestDoRunsEveryJobExactlyOnce(t *testing.T) {
	counts := make([]atomic.Int64, 500)
	Do(0, len(counts), func(i int) { counts[i].Add(1) })
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("job %d ran %d times", i, counts[i].Load())
		}
	}
}

func TestDoZeroJobs(t *testing.T) {
	Do(4, 0, func(int) { t.Fatal("no job should run") })
}

func TestDoSerialFallback(t *testing.T) {
	var order []int
	Do(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path out of order: %v", order)
		}
	}
}

func TestDoPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic payload %v", r)
		}
	}()
	Do(4, 16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

func TestPairRunsBoth(t *testing.T) {
	var a, b bool
	Pair(func() { a = true }, func() { b = true })
	if !a || !b {
		t.Fatalf("a=%v b=%v", a, b)
	}
}

func TestPoolRunsSubmittedJobs(t *testing.T) {
	p := NewPool(2, 8)
	defer p.Close()
	var ran atomic.Int64
	var waits []func()
	for i := 0; i < 8; i++ {
		wait, err := p.Submit(func() { ran.Add(1) })
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waits = append(waits, wait)
	}
	for _, w := range waits {
		w()
	}
	if ran.Load() != 8 {
		t.Fatalf("ran %d of 8", ran.Load())
	}
}

func TestPoolBackpressure(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the single worker...
	w1, err := p.Submit(func() { close(started); <-block })
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// ...fill the single queue slot...
	w2, err := p.Submit(func() {})
	if err != nil {
		t.Fatal(err)
	}
	// ...and the next submission must be refused, not queued.
	if _, err := p.Submit(func() {}); err != ErrSaturated {
		t.Fatalf("saturated submit: %v", err)
	}
	close(block)
	w1()
	w2()
	// Capacity freed: submissions flow again.
	w3, err := p.Submit(func() {})
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	w3()
}

func TestPoolJobPanicSurfacesOnWait(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	wait, err := p.Submit(func() { panic("kaboom") })
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "kaboom") {
				t.Errorf("recovered %v", r)
			}
		}()
		wait()
	}()
	// The worker survived the panic.
	w2, err := p.Submit(func() {})
	if err != nil {
		t.Fatal(err)
	}
	w2()
}

func TestPoolCloseRejectsNewJobs(t *testing.T) {
	p := NewPool(1, 1)
	p.Close()
	if _, err := p.Submit(func() {}); err == nil {
		t.Fatal("closed pool accepted a job")
	}
}

// TestPoolCloseWhileSaturated races Close against a crowd of
// submitters hammering a fully saturated pool. The invariants, best
// exercised under -race: no Submit ever panics (the closed-channel
// send Close guards against), every accepted job eventually runs
// (waits return), and Close itself returns. Run with -race.
func TestPoolCloseWhileSaturated(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the worker and fill the queue so every submitter below
	// lands on the saturated path while Close races them.
	w1, err := p.Submit(func() { close(started); <-block })
	if err != nil {
		t.Fatal(err)
	}
	<-started
	w2, err := p.Submit(func() {})
	if err != nil {
		t.Fatal(err)
	}

	const submitters = 8
	var (
		wg       sync.WaitGroup
		rejected atomic.Int64
		mu       sync.Mutex
		waits    []func()
	)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Bounded spin: enough iterations to straddle the
			// saturated phase, the drain and the Close, without
			// soaking the race detector for seconds.
			for n := 0; n < 5000; n++ {
				wait, err := p.Submit(func() {})
				switch {
				case err == nil:
					mu.Lock()
					waits = append(waits, wait)
					mu.Unlock()
				case err == ErrSaturated:
					rejected.Add(1)
				default:
					// Pool closed: the terminal state every submitter
					// lands in once Close wins the race.
					return
				}
			}
		}()
	}

	time.Sleep(10 * time.Millisecond) // submitters hammer the full queue
	close(block)                      // free the worker
	// Guarantee at least one post-drain acceptance before Close joins
	// the race.
	for {
		if wait, err := p.Submit(func() {}); err == nil {
			mu.Lock()
			waits = append(waits, wait)
			mu.Unlock()
			break
		}
	}
	p.Close()
	wg.Wait()

	// Every job the pool accepted must have run; its wait returns
	// instead of deadlocking on a dropped job.
	w1()
	w2()
	mu.Lock()
	defer mu.Unlock()
	for _, wait := range waits {
		wait()
	}
	if rejected.Load() == 0 {
		t.Error("saturation path never exercised")
	}
	if len(waits) == 0 {
		t.Error("acceptance path never exercised")
	}
}
