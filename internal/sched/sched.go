// Package sched is the tenant-aware execution scheduler: a two-level
// weighted-fair queue in front of the farm.Pool worker substrate.
//
// The bounded FIFO pool is honest but first-come: one tenant's
// 100k-variant sweep fills the queue and every interactive /run
// behind it waits (or eats the one global saturation 503). This
// package replaces "one queue, one high-water mark" with:
//
//   - Priority classes. Every job belongs to a Class — Interactive
//     (/run, /compare) or Batch (sweep backfill) — and classes share
//     the workers by weighted fair queueing (stride scheduling):
//     with weights 4:1 a saturated cluster gives interactive work
//     4 of every 5 worker dispatches, yet an idle class cedes its
//     share entirely (the scheduler is work-conserving — weights
//     shape contention, never capacity).
//   - Per-tenant fairness inside a class. Tenants queue separately
//     and share their class's dispatches equally, so one tenant's
//     burst delays its own backlog, not every other tenant's.
//   - Admission control per class. Each class has its own queue cap
//     and its own honest Retry-After derived from its own backlog
//     and weighted worker share — an interactive client is never
//     told to back off because the sweep backlog is deep.
//
// Determinism is untouched by construction: the scheduler decides
// WHEN a job runs, never what it computes — a simulation's bytes are
// a pure function of its spec, regardless of dispatch order.
//
// Jobs execute on a farm.Pool sized exactly to the worker count; the
// scheduler dispatches a job only when a worker slot is free, so the
// pool's own queue never saturates and the per-(tenant,class) queues
// here are the only queues. A panic inside a job is recovered and
// rethrown on the goroutine that waits on the job, exactly like the
// bare pool. Close stops admissions and drains every queued job
// before returning, matching the pool's close-while-saturated
// semantics.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/farm"
)

// Class is a job's priority class.
type Class uint8

// The scheduler's class vocabulary. Interactive outranks Batch by
// weight, not absolutely: a saturated cluster still makes batch
// progress in proportion to the configured weights.
const (
	// Interactive is the class of latency-sensitive single requests
	// (/run, /compare) — the default for direct HTTP traffic.
	Interactive Class = iota
	// Batch is the class of sweep backfill (sweep, analyze and resume
	// variant resolution) — throughput work that must not starve
	// interactive requests.
	Batch

	numClasses
)

// String returns the class's wire name — the value of the X-Class
// header, the healthz "class" key and the metrics class label, which
// are all deliberately the same vocabulary.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass maps a wire name (the X-Class header value) onto its
// Class; ok=false means the name is not in the vocabulary.
func ParseClass(name string) (Class, bool) {
	switch name {
	case "interactive":
		return Interactive, true
	case "batch":
		return Batch, true
	}
	return 0, false
}

// Classes returns every class in stable display order — the iteration
// order of healthz snapshots and metric registration.
func Classes() []Class { return []Class{Interactive, Batch} }

// Default class weights: interactive work wins 4 of every 5 worker
// dispatches under full contention. Batch is never starved (weight 0
// is not representable — New floors weights at 1).
const (
	DefaultInteractiveWeight = 4
	DefaultBatchWeight       = 1
)

// DefaultTenant buckets requests that carry no tenant header. It is a
// real tenant like any other: anonymous traffic shares one fair slice
// instead of bypassing fairness.
const DefaultTenant = "default"

// MaxTenantLen bounds a tenant identifier (tenants become metric
// label values; unbounded identifiers would be a cardinality and
// exposition-size hazard).
const MaxTenantLen = 64

// ValidTenant reports whether name is an acceptable tenant
// identifier: 1..MaxTenantLen characters drawn from [A-Za-z0-9._-].
func ValidTenant(name string) bool {
	if len(name) == 0 || len(name) > MaxTenantLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// ErrSaturated is returned by Submit when the job's class queue is at
// its cap — the per-class backpressure signal a service translates
// into a 503 whose Retry-After reflects that class's backlog alone.
var ErrSaturated = errors.New("sched: class queue saturated")

// ErrClosed is returned by Submit after Close — terminal, never worth
// retrying.
var ErrClosed = errors.New("sched: scheduler closed")

// MaxRetryAfterSeconds caps the advertised backoff so a pathological
// backlog never tells clients to go away for minutes.
const MaxRetryAfterSeconds = 30

// Options sizes a Scheduler.
type Options struct {
	// Workers is the worker count (<= 0: one per CPU).
	Workers int
	// Queue caps each class's queued-job backlog (<= 0: 2x workers).
	// The cap is per class: a full batch queue rejects batch
	// submissions and nothing else.
	Queue int
	// Weights are the per-class dispatch weights (missing or <= 0:
	// the class default). Under full contention a class receives
	// weight/sum(active weights) of worker dispatches.
	Weights map[Class]int
}

// Observer is the scheduler's metrics hook: optional callbacks fired
// on queue-depth changes, dispatches and admission rejections. They
// run under the scheduler's lock and must be fast and must not call
// back into the Scheduler.
type Observer struct {
	// QueueDepth reports a (tenant, class) queue's new depth after an
	// enqueue or a dispatch.
	QueueDepth func(tenant string, class Class, depth int)
	// Wait reports one job's queue wait (admission to dispatch).
	Wait func(class Class, d time.Duration)
	// Rejected reports one admission rejection (class queue at cap).
	Rejected func(class Class)
}

// job is one queued unit of work.
type job struct {
	fn func()
	// done receives the job's recovered panic value (nil on success)
	// exactly once; waiters rethrow it.
	done     chan any
	tenant   string
	class    Class
	enqueued time.Time
}

// tenantQueue is one tenant's FIFO within a class.
type tenantQueue struct {
	name string
	// pass is the tenant's stride-scheduling virtual time; the active
	// tenant with the smallest pass dispatches next.
	pass uint64
	jobs []*job
}

// classState is one class's scheduling state.
type classState struct {
	class  Class
	weight int
	// stride is the pass increment per dispatch (strideOne/weight):
	// heavier classes accumulate pass slower and so dispatch more.
	stride uint64
	// pass is the class's virtual time; the backlogged class with the
	// smallest pass dispatches next.
	pass    uint64
	queued  int
	tenants map[string]*tenantQueue

	inFlight   int
	rejected   uint64
	dispatched uint64
}

// strideOne is the stride numerator: a weight-1 queue advances its
// pass by strideOne per dispatch, a weight-w queue by strideOne/w.
const strideOne uint64 = 1 << 20

// Scheduler is the weighted-fair scheduler. It owns a farm.Pool of
// workers and per-(tenant,class) FIFO queues in front of them; see
// the package comment for the scheduling discipline.
type Scheduler struct {
	pool     *farm.Pool
	workers  int
	queueCap int

	mu      sync.Mutex
	drained sync.Cond
	classes [numClasses]*classState
	// running counts jobs handed to the pool and not yet finished; it
	// never exceeds workers, which is why the pool's own queue cannot
	// saturate.
	running int
	closed  bool

	obs Observer
}

// New starts a scheduler (its workers run until Close).
func New(opt Options) *Scheduler {
	if opt.Workers <= 0 {
		opt.Workers = farm.DefaultWorkers()
	}
	if opt.Queue <= 0 {
		opt.Queue = 2 * opt.Workers
	}
	s := &Scheduler{
		// The pool's queue holds at most `workers` dispatched-but-not-
		// picked-up jobs (running <= workers), so sizing it to the
		// worker count makes pool-side saturation impossible.
		pool:     farm.NewPool(opt.Workers, opt.Workers),
		workers:  opt.Workers,
		queueCap: opt.Queue,
	}
	s.drained.L = &s.mu
	for _, c := range Classes() {
		w := opt.Weights[c]
		if w <= 0 {
			w = defaultWeight(c)
		}
		s.classes[c] = &classState{
			class:   c,
			weight:  w,
			stride:  strideOne / uint64(w),
			tenants: make(map[string]*tenantQueue),
		}
	}
	return s
}

// defaultWeight is the weight a class gets when Options.Weights does
// not name it.
func defaultWeight(c Class) int {
	if c == Batch {
		return DefaultBatchWeight
	}
	return DefaultInteractiveWeight
}

// SetObserver installs the metrics hooks (call before serving; the
// zero Observer is valid and reports nothing).
func (s *Scheduler) SetObserver(o Observer) {
	s.mu.Lock()
	s.obs = o
	s.mu.Unlock()
}

// Workers returns the worker count.
func (s *Scheduler) Workers() int { return s.workers }

// QueueCap returns the per-class queue cap.
func (s *Scheduler) QueueCap() int { return s.queueCap }

// Submit enqueues fn for tenant and class and returns a wait function
// that blocks until the job finishes (rethrowing the job's panic, if
// any). An empty or invalid tenant falls into DefaultTenant. It
// returns ErrSaturated without enqueueing when the class's queue is
// at its cap, and ErrClosed after Close.
func (s *Scheduler) Submit(tenant string, class Class, fn func()) (wait func(), err error) {
	if !ValidTenant(tenant) {
		tenant = DefaultTenant
	}
	if class >= numClasses {
		class = Interactive
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	c := s.classes[class]
	if c.queued >= s.queueCap {
		c.rejected++
		if s.obs.Rejected != nil {
			s.obs.Rejected(class)
		}
		s.mu.Unlock()
		return nil, fmt.Errorf("%s: %w", class, ErrSaturated)
	}
	j := &job{fn: fn, done: make(chan any, 1), tenant: tenant, class: class, enqueued: time.Now()}
	s.enqueueLocked(c, j)
	s.dispatchLocked()
	s.mu.Unlock()
	return func() {
		if r := <-j.done; r != nil {
			panic(r)
		}
	}, nil
}

// enqueueLocked appends j to its tenant queue, creating the queue
// (and normalizing its virtual time) if the tenant is newly active.
func (s *Scheduler) enqueueLocked(c *classState, j *job) {
	t := c.tenants[j.tenant]
	if t == nil {
		// A newly active tenant starts at the smallest active pass in
		// its class, not zero: a tenant cannot bank credit by idling
		// and then monopolize dispatches to "catch up".
		t = &tenantQueue{name: j.tenant, pass: c.minTenantPass()}
		c.tenants[j.tenant] = t
	}
	if c.queued == 0 {
		// Same normalization one level up: a class going idle->active
		// re-enters at the backlogged minimum, never with banked credit.
		if m, ok := s.minClassPass(); ok && c.pass < m {
			c.pass = m
		}
	}
	t.jobs = append(t.jobs, j)
	c.queued++
	if s.obs.QueueDepth != nil {
		s.obs.QueueDepth(t.name, c.class, len(t.jobs))
	}
}

// minTenantPass returns the smallest pass among the class's active
// tenants (0 when none are active).
func (c *classState) minTenantPass() uint64 {
	var m uint64
	first := true
	for _, t := range c.tenants {
		if first || t.pass < m {
			m, first = t.pass, false
		}
	}
	return m
}

// minClassPass returns the smallest pass among backlogged classes.
func (s *Scheduler) minClassPass() (uint64, bool) {
	var m uint64
	found := false
	for _, c := range s.classes {
		if c.queued == 0 {
			continue
		}
		if !found || c.pass < m {
			m, found = c.pass, true
		}
	}
	return m, found
}

// dispatchLocked hands queued jobs to the pool while worker slots are
// free — called on every admission and every completion, which keeps
// the scheduler work-conserving without a pump goroutine.
func (s *Scheduler) dispatchLocked() {
	for s.running < s.workers {
		j := s.pickLocked()
		if j == nil {
			return
		}
		s.running++
		c := s.classes[j.class]
		c.inFlight++
		c.dispatched++
		if s.obs.Wait != nil {
			s.obs.Wait(j.class, time.Since(j.enqueued))
		}
		run := j
		if _, err := s.pool.Submit(func() {
			defer func() {
				r := recover()
				s.finish(run)
				run.done <- r
			}()
			run.fn()
		}); err != nil {
			// Unreachable by construction (the pool can neither
			// saturate nor close before the scheduler drains), but a
			// blocked waiter would be worse than a surfaced error.
			s.running--
			c.inFlight--
			run.done <- fmt.Errorf("sched: dispatch: %w", err)
		}
	}
}

// pickLocked pops the next job under the two-level discipline:
// backlogged class with the smallest pass, then its active tenant
// with the smallest pass, then FIFO; both levels advance their
// virtual time by their stride. Ties break deterministically (class
// order, then tenant name).
func (s *Scheduler) pickLocked() *job {
	var c *classState
	for _, cand := range s.classes {
		if cand.queued == 0 {
			continue
		}
		if c == nil || cand.pass < c.pass {
			c = cand
		}
	}
	if c == nil {
		return nil
	}
	var t *tenantQueue
	for _, cand := range c.tenants {
		if t == nil || cand.pass < t.pass || (cand.pass == t.pass && cand.name < t.name) {
			t = cand
		}
	}
	j := t.jobs[0]
	t.jobs[0] = nil
	t.jobs = t.jobs[1:]
	c.queued--
	c.pass += c.stride
	t.pass += strideOne
	if s.obs.QueueDepth != nil {
		s.obs.QueueDepth(t.name, c.class, len(t.jobs))
	}
	if len(t.jobs) == 0 {
		// Drop idle tenants: state stays O(active tenants) and a
		// returning tenant re-enters through the pass normalization
		// in enqueueLocked.
		delete(c.tenants, t.name)
	}
	return j
}

// finish retires one dispatched job and refills the freed slot.
func (s *Scheduler) finish(j *job) {
	s.mu.Lock()
	s.running--
	s.classes[j.class].inFlight--
	s.dispatchLocked()
	if s.closed && s.running == 0 && s.queuedLocked() == 0 {
		s.drained.Broadcast()
	}
	s.mu.Unlock()
}

// queuedLocked sums queued jobs across classes.
func (s *Scheduler) queuedLocked() int {
	n := 0
	for _, c := range s.classes {
		n += c.queued
	}
	return n
}

// Queued returns the number of jobs queued (admitted, not yet
// dispatched) across all classes and tenants.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLocked()
}

// InFlight returns the number of jobs dispatched and not yet
// finished. Queued()+InFlight() is the scheduler's instantaneous
// load.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// RetryAfterSeconds derives the honest per-class backoff a 503 for
// class should advertise: one second base plus one per worker-share
// batch of that class's OWN backlog. The share is the class's
// weighted slice of the workers among currently backlogged classes —
// a class with no competition counts every worker as its own, so a
// single-class deployment reproduces the old global formula exactly,
// while under contention a deep batch backlog inflates batch waits
// without touching interactive ones. Capped at
// MaxRetryAfterSeconds.
func (s *Scheduler) RetryAfterSeconds(class Class) int {
	if class >= numClasses {
		class = Interactive
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryAfterLocked(s.classes[class])
}

func (s *Scheduler) retryAfterLocked(c *classState) int {
	backlog := c.queued + c.inFlight
	if backlog == 0 {
		return 1
	}
	activeWeight := 0
	for _, other := range s.classes {
		if other.queued+other.inFlight > 0 {
			activeWeight += other.weight
		}
	}
	share := s.workers * c.weight / activeWeight
	if share < 1 {
		share = 1
	}
	secs := 1 + backlog/share
	if secs > MaxRetryAfterSeconds {
		secs = MaxRetryAfterSeconds
	}
	return secs
}

// ClassStatus is one class's healthz snapshot. Class matches the
// X-Class wire name and the metrics class label.
type ClassStatus struct {
	// Class is the class's wire name ("interactive", "batch").
	Class string `json:"class"`
	// Weight is the class's dispatch weight.
	Weight int `json:"weight"`
	// QueueCap is the class's admission cap.
	QueueCap int `json:"queue_capacity"`
	// Queued and InFlight are the class's instantaneous load.
	Queued   int `json:"queued"`
	InFlight int `json:"in_flight"`
	// RetryAfter is the backoff (seconds) a 503 for this class would
	// carry right now.
	RetryAfter int `json:"retry_after"`
	// Rejected counts admissions refused at this class's cap.
	Rejected uint64 `json:"rejected"`
	// Dispatched counts jobs handed to a worker.
	Dispatched uint64 `json:"dispatched"`
}

// TenantStatus is one active (tenant, class) queue's healthz
// snapshot; idle tenants are absent.
type TenantStatus struct {
	// Tenant matches the X-Tenant wire value and the metrics tenant
	// label.
	Tenant string `json:"tenant"`
	// Class is the queue's class wire name.
	Class string `json:"class"`
	// Queued is the queue's depth.
	Queued int `json:"queued"`
}

// Snapshot is the scheduler's healthz block: per-class and active
// per-tenant queue state, keyed with exactly the metrics label
// vocabulary (class, tenant).
type Snapshot struct {
	// Classes has one entry per class, in Classes() order.
	Classes []ClassStatus `json:"classes"`
	// Tenants lists active (tenant, class) queues, sorted by class
	// then tenant.
	Tenants []TenantStatus `json:"tenants,omitempty"`
}

// Snapshot returns the current per-class and per-tenant state.
func (s *Scheduler) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{Classes: make([]ClassStatus, 0, int(numClasses))}
	for _, class := range Classes() {
		c := s.classes[class]
		snap.Classes = append(snap.Classes, ClassStatus{
			Class:      class.String(),
			Weight:     c.weight,
			QueueCap:   s.queueCap,
			Queued:     c.queued,
			InFlight:   c.inFlight,
			RetryAfter: s.retryAfterLocked(c),
			Rejected:   c.rejected,
			Dispatched: c.dispatched,
		})
		names := make([]string, 0, len(c.tenants))
		for name := range c.tenants {
			names = append(names, name)
		}
		sortStrings(names)
		for _, name := range names {
			snap.Tenants = append(snap.Tenants, TenantStatus{
				Tenant: name, Class: class.String(), Queued: len(c.tenants[name].jobs),
			})
		}
	}
	return snap
}

// sortStrings is an insertion sort; tenant sets are small and this
// avoids importing sort into the hot package for a healthz path.
func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Close stops admissions, drains every queued job (queued work runs
// to completion, matching the pool's close semantics), then stops the
// workers. Safe to call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	for s.running > 0 || s.queuedLocked() > 0 {
		s.drained.Wait()
	}
	s.mu.Unlock()
	s.pool.Close()
}
