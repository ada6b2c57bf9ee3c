// Per-backend circuit breakers. Without one, a dead shard charges
// every variant routed at it a full dial timeout before the router
// can fail over; with one, the shard pays for its death once per
// recovery interval (a single background /healthz probe) and the
// sweep path skips it instantly. The breaker is deliberately the
// textbook three-state machine:
//
//	closed    — traffic flows; consecutive failures are counted.
//	open      — traffic is refused locally; a background prober
//	            polls the backend's /healthz every interval.
//	half-open — the probe succeeded; the next real request is the
//	            trial. Success closes the breaker, failure re-opens
//	            it (and restarts the prober).
//
// "Failure" means a transport error or a terminal 503 (X-Terminal, or
// a terminal /batch record: the backend is shutting down) — the two
// signals that retrying the same backend is pointless. Any other
// answer, a saturation 503 included, comes from a LIVE backend and
// resets the failure streak.
package shard

import (
	"context"
	"sync"
	"time"
)

// Breaker state names, as surfaced in healthz and tests.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// defaultBreakerThreshold is how many CONSECUTIVE failures trip the
// breaker. More than one, so a single flaky connection doesn't eject
// a healthy shard; small, so a dead shard stops costing dial attempts
// almost immediately.
const defaultBreakerThreshold = 3

// defaultBreakerInterval paces the open-state /healthz probes — the
// full price of a dead shard per recovery window.
const defaultBreakerInterval = time.Second

// breaker is one backend's circuit breaker.
type breaker struct {
	threshold int
	interval  time.Duration
	// probe checks the guarded backend's liveness (the router wires
	// this to FetchHealth against /healthz).
	probe func(ctx context.Context) error
	// stop ends the background prober (router shutdown).
	stop <-chan struct{}
	// closed ends this one breaker's prober without touching the
	// router-wide stop channel — a drained shard's breaker is closed
	// individually so it stops probing a backend that is gone on
	// purpose, while every other breaker keeps running.
	closed    chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	state   string
	fails   int  // consecutive failures while closed
	probing bool // a prober goroutine is running
	// onTrip, when set, is called (outside the lock) once per
	// transition into the open state — the monotonic trip counter the
	// metrics layer records, which a scrape can catch even when the
	// breaker has already re-closed by the time it looks. Set before
	// the breaker sees traffic.
	onTrip func()
}

func newBreaker(threshold int, interval time.Duration, probe func(ctx context.Context) error, stop <-chan struct{}) *breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if interval <= 0 {
		interval = defaultBreakerInterval
	}
	return &breaker{threshold: threshold, interval: interval, probe: probe, stop: stop, closed: make(chan struct{}), state: breakerClosed}
}

// allow reports whether a request may be sent to this backend right
// now. Open means no — the caller fails over without paying a dial.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != breakerOpen
}

// success records a response from a live backend (any HTTP status
// that isn't a terminal 503 — even a saturation 503 proves liveness).
// It closes the breaker from any state.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
}

// failure records a transport error or terminal 503. In closed state
// it trips the breaker after threshold consecutive failures; in
// half-open state the trial request failed, so it re-opens
// immediately.
func (b *breaker) failure() {
	b.mu.Lock()
	tripped := false
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.tripLocked()
			tripped = true
		}
	case breakerHalfOpen:
		b.tripLocked()
		tripped = true
	}
	b.mu.Unlock()
	if tripped && b.onTrip != nil {
		b.onTrip()
	}
}

// tripLocked opens the breaker and starts the prober (if one isn't
// already running — a half-open → open transition reuses nothing; the
// previous prober exited when it reported success). Caller holds b.mu.
func (b *breaker) tripLocked() {
	b.state = breakerOpen
	b.fails = 0
	if !b.probing {
		b.probing = true
		go b.probeLoop()
	}
}

// probeLoop polls the backend's /healthz every interval while the
// breaker is open. The first successful probe moves the breaker to
// half-open and exits — the next real request is the trial that
// decides closed vs re-open.
func (b *breaker) probeLoop() {
	for {
		select {
		case <-b.stop:
			b.mu.Lock()
			b.probing = false
			b.mu.Unlock()
			return
		case <-b.closed:
			b.mu.Lock()
			b.probing = false
			b.mu.Unlock()
			return
		case <-time.After(b.interval):
		}
		ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
		err := b.probe(ctx)
		cancel()
		b.mu.Lock()
		if err == nil {
			if b.state == breakerOpen {
				b.state = breakerHalfOpen
			}
			b.probing = false
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
	}
}

// close retires this breaker: its prober (running or future) exits
// instead of polling a deliberately removed backend forever. The
// breaker itself keeps answering State for any straggling reader.
func (b *breaker) close() { b.closeOnce.Do(func() { close(b.closed) }) }

// State returns the current state name ("closed", "open",
// "half-open") for healthz and tests.
func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// StateCode returns the state as the gauge encoding the metrics layer
// exports: 0 closed, 1 half-open, 2 open.
func (b *breaker) StateCode() float64 {
	switch b.State() {
	case breakerHalfOpen:
		return 1
	case breakerOpen:
		return 2
	default:
		return 0
	}
}
