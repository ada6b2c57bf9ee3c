// Package chaos is the fault-injection layer behind the cluster's
// resilience tests: an HTTP middleware that can kill, hang, slow,
// 503 or corrupt responses on demand from test code, and a store
// fault that corrupts result envelopes on disk. It promotes the
// repo's adversarial differential-testing habit to whole-cluster
// scope — the chaos smoke (examples/chaos_service) and the shard
// package's failover tests drive a real router over real backends
// while this package breaks things, and assert the serving layer's
// promises hold: zero error rows under single-shard loss,
// byte-identical analyses, truthful terminal summaries.
//
// Faults are ARMED, not configured: Arm(fault, n) injects the fault
// into the next n matching requests and then the injector goes
// transparent again. That makes recovery scenarios (fail N requests,
// then heal) deterministic without any clock coupling between the
// test and the victim.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Fault enumerates the injectable behaviors.
type Fault int

const (
	// None passes requests through untouched.
	None Fault = iota
	// Kill aborts the connection mid-response (the client sees a
	// transport error, exactly like a SIGKILLed process).
	Kill
	// Hang never responds; the request blocks until the client (or a
	// router attempt timeout) gives up.
	Hang
	// Slow delays the response by the injector's Delay, then serves
	// normally.
	Slow
	// Unavailable answers 503 with a Retry-After, imitating a
	// saturated backend.
	Unavailable
	// Corrupt serves the real response with its body bytes mangled.
	Corrupt
	// Drop runs the request to completion — the backend does the work
	// and keeps what it cached — then aborts the connection instead of
	// answering: a process killed, or a link cut, mid-call.
	Drop
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Kill:
		return "kill"
	case Hang:
		return "hang"
	case Slow:
		return "slow"
	case Unavailable:
		return "unavailable"
	case Corrupt:
		return "corrupt"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Injector is an HTTP middleware with an armable fault. The zero
// value is a transparent proxy; it is safe for concurrent use.
type Injector struct {
	mu        sync.Mutex
	fault     Fault
	remaining int // requests left to fault; < 0 means until Clear
	path      string
	delay     time.Duration
}

// Arm makes the next n matching requests experience the fault
// (n < 0: every request until Clear). Matching is by path prefix set
// with ArmPath; an empty prefix matches everything.
func (in *Injector) Arm(f Fault, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fault = f
	in.remaining = n
}

// ArmPath is Arm restricted to requests whose URL path starts with
// prefix — so a test can break /run while /healthz keeps answering,
// which is exactly the shape of a wedged-but-alive backend (and what
// lets a circuit breaker's health probe see recovery).
func (in *Injector) ArmPath(f Fault, n int, prefix string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fault = f
	in.remaining = n
	in.path = prefix
}

// SetDelay sets the Slow fault's delay.
func (in *Injector) SetDelay(d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.delay = d
}

// Clear disarms the injector.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fault = None
	in.remaining = 0
	in.path = ""
}

// take consumes one faulted request if the injector is armed for this
// request, returning the fault to apply (and the Slow delay).
func (in *Injector) take(r *http.Request) (Fault, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fault == None || in.remaining == 0 {
		return None, 0
	}
	if in.path != "" && !strings.HasPrefix(r.URL.Path, in.path) {
		return None, 0
	}
	if in.remaining > 0 {
		in.remaining--
	}
	return in.fault, in.delay
}

// Middleware wraps next with the injector.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fault, delay := in.take(r)
		switch fault {
		case Kill:
			// The canonical way to abort the connection without a
			// response: the client observes EOF/RST, indistinguishable
			// from the process dying under it.
			panic(http.ErrAbortHandler)
		case Hang:
			// Hold the request until the CLIENT gives up — a wedged
			// handler never politely times itself out. Drain the body
			// first: the HTTP server only watches for the client
			// vanishing once the request body has been consumed, and a
			// hang that also blinds itself to disconnects would wedge
			// graceful shutdown behind every abandoned request.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		case Slow:
			// Consumed for the same reason, but kept: the handler still
			// has to serve the request it was sent.
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				panic(http.ErrAbortHandler)
			}
		case Unavailable:
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"injected: unavailable"}`))
			return
		case Corrupt:
			next.ServeHTTP(&corruptingWriter{ResponseWriter: w}, r)
			return
		case Drop:
			next.ServeHTTP(discardingWriter{http.Header{}}, r)
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(w, r)
	})
}

// discardingWriter accepts a response and sends none of it.
type discardingWriter struct{ header http.Header }

func (d discardingWriter) Header() http.Header         { return d.header }
func (d discardingWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardingWriter) WriteHeader(int)             {}

// corruptingWriter flips bits in every body chunk it forwards. The
// headers (status, content-type) pass through intact — corruption
// that announces itself in the status line is not corruption, it's an
// error response.
type corruptingWriter struct {
	http.ResponseWriter
}

func (c *corruptingWriter) Write(b []byte) (int, error) {
	mangled := make([]byte, len(b))
	for i, by := range b {
		mangled[i] = by ^ 0x5a
	}
	n, err := c.ResponseWriter.Write(mangled)
	if n > len(b) {
		n = len(b)
	}
	return n, err
}

// CorruptResults overwrites the envelope header of up to n result
// files under dir (an internal/store directory), returning how many
// were damaged. The files are picked in sorted-name order so drills
// are deterministic. A store that reopens the directory must detect,
// count and delete every one of them — that assertion is the point.
func CorruptResults(dir string, n int) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var names []string
	for _, de := range entries {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".res") {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	damaged := 0
	for _, name := range names {
		if damaged >= n {
			break
		}
		path := filepath.Join(dir, name)
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return damaged, err
		}
		// Stomp the magic: the cheapest damage every header read
		// catches.
		if _, err := f.WriteAt([]byte("CHAOSCHAOS"), 0); err != nil {
			f.Close()
			return damaged, err
		}
		f.Close()
		damaged++
	}
	return damaged, nil
}
