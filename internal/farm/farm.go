// Package farm is the experiment run farm: a bounded worker pool that
// executes independent simulation runs across goroutines. A single
// simulation is strictly single-threaded by design (the kernels are
// deterministic state machines), but the experiment harnesses —
// Table 1 accuracy rows, ablation sweeps, scenario batteries — are
// embarrassingly parallel across runs, so multi-scenario experiments
// scale with cores instead of running one run at a time.
//
// Workers never share model state: every job builds its own platform
// (engine, memory, checker, stats) from its workload description, and
// results land in per-index slots, so runs stay bit-reproducible
// regardless of scheduling order.
//
// Pool, a long-lived pool with a bounded queue, serves no model or
// service code: the simulation service's fair scheduler
// (internal/sched) runs its own workers. It remains as the plain-pool
// baseline the benchmark's farm.pool_submit_us probe times.
package farm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes
// workers <= 0: one per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Do runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means DefaultWorkers). It returns when every call has
// finished. A panic in any call is re-raised on the caller's goroutine
// after the remaining jobs drain, so a model assertion failing inside a
// farmed run surfaces exactly like a serial one.
func Do(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path: no goroutines, identical call order.
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, fmt.Sprintf("farm: job %d panicked: %v", i, r))
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns the results in index order. Scheduling order never
// affects the output: slot i always holds fn(i).
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	Do(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// Pair runs two independent functions concurrently (on two goroutines
// at most) and returns when both finish. It is the two-model harness
// shape: the same workload pushed through the pin-accurate model and
// the TLM at once.
func Pair(a, b func()) {
	Do(2, 2, func(i int) {
		if i == 0 {
			a()
		} else {
			b()
		}
	})
}

// ErrSaturated is returned by Pool.Submit when the bounded job queue
// is full — the backpressure signal a service translates into "try
// again later" instead of queueing unboundedly.
var ErrSaturated = errors.New("farm: job queue saturated")

// Pool is a long-lived worker pool with a bounded job queue. Unlike
// Do/Map — which are built for a fixed batch known up front — a Pool
// serves jobs that arrive one at a time, applying backpressure once
// the queue fills.
//
// A panic inside a job is recovered and rethrown on the goroutine
// that waits on the job's done function, not the worker, so one bad
// job cannot take a worker out of the pool.
type Pool struct {
	jobs chan func()
	wg   sync.WaitGroup
	// mu serializes Submit's closed-check-then-send against Close's
	// flag-set-then-close so a late Submit can never send on a closed
	// channel. Submitters share a read lock (the send itself is
	// non-blocking); Close takes the write lock.
	mu     sync.RWMutex
	closed bool
}

// NewPool starts a pool with the given worker count (<= 0 selects
// DefaultWorkers) and queue capacity (<= 0 selects 2x the workers).
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if queue <= 0 {
		queue = 2 * workers
	}
	p := &Pool{jobs: make(chan func(), queue)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// Submit enqueues a job and returns a wait function that blocks until
// the job finishes (rethrowing the job's panic, if any). It returns
// ErrSaturated without enqueueing when the queue is full, and an
// error after Close.
func (p *Pool) Submit(job func()) (wait func(), err error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, errors.New("farm: pool closed")
	}
	done := make(chan any, 1)
	wrapped := func() {
		defer func() { done <- recover() }()
		job()
	}
	select {
	case p.jobs <- wrapped:
		return func() {
			if r := <-done; r != nil {
				panic(r)
			}
		}, nil
	default:
		return nil, ErrSaturated
	}
}

// Close stops accepting jobs and waits for queued ones to drain.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
