// The worker's metric vocabulary: every simd_* series GET /metrics
// exposes, registered once at construction. Almost everything is a
// callback metric read at scrape time from counters the serving path
// already maintains (the healthz atomics, the scheduler, the store),
// so
// instrumentation adds nothing to the hot path beyond what /healthz
// already paid — the kernel-side zero-alloc contract
// (BenchmarkSchedulerPostDispatch) is untouched by construction.
package service

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/store"
)

// Timing is the per-stage breakdown of one computed (cache-miss)
// response: queue wait (submission to worker pickup), simulate
// (kernel time) and encode (result marshalling). Carried on /run,
// /compare and coalesced responses as the X-Timing header.
type Timing struct {
	Queue    time.Duration
	Simulate time.Duration
	Encode   time.Duration
}

// TimingHeader is the response header carrying a computed response's
// stage breakdown.
const TimingHeader = "X-Timing"

// Header renders the X-Timing value: semicolon-separated stage=dur
// pairs, each parseable with time.ParseDuration.
func (t *Timing) Header() string {
	return "queue=" + t.Queue.String() + ";simulate=" + t.Simulate.String() + ";encode=" + t.Encode.String()
}

// initMetrics registers the server's metric families. Called once
// from New, after the scheduler, cache and store exist.
func (s *Server) initMetrics() {
	reg := obs.NewRegistry()
	s.reg = reg
	s.httpMetrics = obs.NewHTTPMetrics(reg, "simd_")

	// Cache dispositions per tier, derived from the healthz atomics.
	// memory_hit is hits minus storeHits (disk hits increment both);
	// loading storeHits first guarantees the subtraction never sees a
	// disk hit's second increment without its first.
	tiers := reg.CounterVec("simd_cache_requests_total", "Cache lookups by disposition tier.", "tier")
	tiers.Func(func() uint64 {
		sh := s.storeHits.Load()
		return s.hits.Load() - sh
	}, "memory_hit")
	tiers.Func(s.storeHits.Load, "disk_hit")
	tiers.Func(s.coalesced.Load, "coalesced")
	tiers.Func(s.jobs.Load, "miss")

	reg.CounterFunc("simd_jobs_total", "Simulation jobs executed.", s.jobs.Load)
	reg.CounterFunc("simd_rejections_total", "Requests refused 503 under backpressure.", s.rejected.Load)
	reg.CounterFunc("simd_timeouts_total", "Simulations aborted 504 at the request deadline.", s.timeouts.Load)

	// The weighted-fair scheduler's own vocabulary. Depth and wait are
	// pushed by the scheduler's observer hooks (called under its lock,
	// so a scrape always sees a depth the scheduler actually had);
	// per-class dispatch/rejection counters and in-flight read the
	// snapshot at scrape time.
	depth := reg.GaugeVec("simd_sched_queue_depth", "Queued jobs per tenant and class.", "tenant", "class")
	waits := reg.HistogramVec("simd_sched_wait_seconds", "Queue wait from admission to worker pickup.", obs.DefTimeBuckets, "class")
	rejects := reg.CounterVec("simd_sched_rejections_total", "Submissions refused at a full class queue.", "class")
	inFlight := reg.GaugeVec("simd_sched_in_flight", "Jobs executing on a worker per class.", "class")
	dispatched := reg.CounterVec("simd_sched_dispatched_total", "Jobs handed to a worker per class.", "class")
	classWait := make([]*obs.Histogram, len(sched.Classes()))
	for _, c := range sched.Classes() {
		classWait[c] = waits.With(c.String())
		cl := c
		inFlight.Func(func() float64 {
			return float64(s.sched.Snapshot().Classes[cl].InFlight)
		}, cl.String())
		dispatched.Func(func() uint64 {
			return s.sched.Snapshot().Classes[cl].Dispatched
		}, cl.String())
		rejects.With(cl.String()) // pre-register so the series exists at zero
	}
	s.sched.SetObserver(sched.Observer{
		QueueDepth: func(tenant string, class sched.Class, depthNow int) {
			depth.With(tenant, class.String()).Set(float64(depthNow))
		},
		Wait: func(class sched.Class, d time.Duration) {
			classWait[class].Observe(d.Seconds())
		},
		Rejected: func(class sched.Class) {
			rejects.With(class.String()).Inc()
		},
	})

	reg.GaugeFunc("simd_cache_memory_entries", "Results held in the memory LRU.", func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("simd_process_start_time_seconds", "Unix time the process started serving.", func() float64 { return float64(s.since.Unix()) })

	s.sweepRows = reg.Counter("simd_sweep_rows_total", "Sweep data rows streamed to clients.")
	s.sweepCheckpoints = reg.Counter("simd_sweep_checkpoints_total", "Sweep manifest checkpoints persisted.")
	s.sweepResumes = reg.Counter("simd_sweep_resumes_total", "Sweep resume streams served.")
	s.stolenResults = reg.Counter("simd_stolen_results_total", "Stolen-variant result bodies written back by a router.")

	if s.disk != nil {
		stat := func(pick func(st store.Stats) uint64) func() uint64 {
			return func() uint64 { return pick(s.disk.StatsSnapshot()) }
		}
		reg.GaugeFunc("simd_store_bytes", "Disk store payload bytes.", func() float64 { return float64(s.disk.StatsSnapshot().Bytes) })
		reg.GaugeFunc("simd_store_entries", "Disk store entries.", func() float64 { return float64(s.disk.Len()) })
		reg.CounterFunc("simd_store_hits_total", "Disk store Gets served.", stat(func(st store.Stats) uint64 { return st.Hits }))
		reg.CounterFunc("simd_store_misses_total", "Disk store Gets that found nothing.", stat(func(st store.Stats) uint64 { return st.Misses }))
		reg.CounterFunc("simd_store_writes_total", "Disk store Puts.", stat(func(st store.Stats) uint64 { return st.Writes }))
		reg.CounterFunc("simd_store_evictions_total", "Entries deleted by the size-budget GC.", stat(func(st store.Stats) uint64 { return st.Evictions }))
		reg.CounterFunc("simd_store_corrupt_total", "Envelopes rejected by verification.", stat(func(st store.Stats) uint64 { return st.Corrupt }))
		reg.CounterFunc("simd_store_corrupt_at_open_total", "Corrupt envelopes found while indexing at open.", stat(func(st store.Stats) uint64 { return st.CorruptAtOpen }))
		reg.CounterFunc("simd_store_index_loads_total", "Opens served from the persisted startup index (no per-envelope rescan).", stat(func(st store.Stats) uint64 { return st.IndexLoads }))
		reg.CounterFunc("simd_store_index_rebuilds_total", "Opens that fell back to a full directory rescan (missing or corrupt index).", stat(func(st store.Stats) uint64 { return st.IndexRebuilds }))
		reg.GaugeFunc("simd_store_index_bytes", "Bytes held by the persisted startup index file.", func() float64 { return float64(s.disk.StatsSnapshot().IndexBytes) })

		ops := reg.HistogramVec("simd_store_op_seconds", "Disk store operation latency.", obs.DefTimeBuckets, "op")
		get, put := ops.With("get"), ops.With("put")
		s.disk.SetObserver(func(op string, d time.Duration) {
			if op == "get" {
				get.Observe(d.Seconds())
			} else {
				put.Observe(d.Seconds())
			}
		})
	}
}

// Metrics returns the server's metric registry (the /metrics source;
// tests and embedding processes read through it).
func (s *Server) Metrics() *obs.Registry { return s.reg }
