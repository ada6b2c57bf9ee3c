package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: its speed moves by a
// quarter from one minute to the next, for every program on it at once.
// A wall-clock rate therefore says as much about the neighbours as
// about the commit. So every round also times a calibration load that
// uses nothing from this repository, in slices between slices of the
// real load, and the end-to-end rates and latencies are reported at the
// speed the host showed on the calibration, scaled to a fixed reference
// speed. The raw wall-clock values are printed beside them.
//
// There are two calibration loads because the workloads use the host in
// two ways: kernels is one goroutine of branchy, memory-touching
// simulation; the serving workloads are clients and servers sharing both
// cores through net/http, JSON and SHA-256.

const (
	// cpuCalRef and httpCalRef are the calibration rates of the
	// reference host at its usual speed, in units per second. They only
	// fix the scale: a host that calibrates at exactly these rates
	// reports its wall-clock numbers unchanged.
	cpuCalRef  = 11.4e6
	httpCalRef = 27000.0
)

// calibrator times one of the two calibration loads.
type calibrator struct {
	ref float64
	run func(d time.Duration) (units int, elapsed time.Duration)
	// units and elapsed accumulate over a round's slices.
	units   int
	elapsed time.Duration
	stop    func()
}

// slice runs the calibration load for d and adds it to the round's tally.
func (c *calibrator) slice(d time.Duration) {
	u, e := c.run(d)
	c.units += u
	c.elapsed += e
}

// take returns the host's speed over the slices since the last take,
// as a share of the reference speed.
func (c *calibrator) take() float64 {
	speed := float64(c.units) / c.elapsed.Seconds() / c.ref
	c.units, c.elapsed = 0, 0
	return speed
}

func (c *calibrator) close() {
	if c.stop != nil {
		c.stop()
	}
}

// calEvent and calHeap are a binary heap of timed events, the data
// structure a discrete-event kernel spends its time in.
type calEvent struct {
	at     uint64
	entity uint32
}

type calEntity struct {
	state, count, last uint64
}

// newCPUCalibrator is the kernels workload's calibration: a
// self-contained event-queue simulation over a few hundred entities
// that also touches a table larger than the L2 cache.
func newCPUCalibrator() *calibrator {
	const entities = 384
	heap := make([]calEvent, entities)
	ents := make([]calEntity, entities)
	table := make([]uint64, 1<<19) // 4 MiB
	rnd := uint64(88172645463325252)
	next := func() uint64 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd
	}
	for i := range heap {
		heap[i] = calEvent{at: next() % 1024, entity: uint32(i)}
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(heap) {
				return
			}
			if r := l + 1; r < len(heap) && heap[r].at < heap[l].at {
				l = r
			}
			if heap[i].at <= heap[l].at {
				return
			}
			heap[i], heap[l] = heap[l], heap[i]
			i = l
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	step := func() {
		ev := &heap[0]
		e := &ents[ev.entity]
		r := next()
		e.state ^= r
		e.count++
		e.last = ev.at
		if e.count&7 == 0 {
			table[r&uint64(len(table)-1)] += e.state
		}
		ev.at += 1 + r%97
		down(0)
	}
	return &calibrator{ref: cpuCalRef, run: func(d time.Duration) (int, time.Duration) {
		t0 := time.Now()
		n := 0
		for time.Since(t0) < d {
			for i := 0; i < 4096; i++ {
				step()
			}
			n += 4096
		}
		return n, time.Since(t0)
	}}
}

// calDoc is the request and reply document of the HTTP calibration: the
// size and shape of a workload spec and a result body, with none of
// their code.
type calDoc struct {
	Name    string            `json:"name"`
	Version int               `json:"version"`
	Params  map[string]uint64 `json:"params"`
	Masters []calMaster       `json:"masters"`
	Sum     string            `json:"sum,omitempty"`
}

type calMaster struct {
	Kind   string  `json:"kind"`
	Base   uint32  `json:"base"`
	Beats  int     `json:"beats"`
	Count  int     `json:"count"`
	Frac   float64 `json:"frac"`
	Window uint32  `json:"window"`
}

// newHTTPCalibrator is the serving workloads' calibration: the same
// number of closed-loop clients posting a spec-sized JSON document to a
// stub server that decodes it, hashes it and encodes a reply.
func newHTTPCalibrator(clients int) *calibrator {
	doc := calDoc{Name: "calibration/document", Version: 1, Params: map[string]uint64{}}
	for _, k := range []string{"bus_bytes", "write_buffer_depth", "banks", "rows", "cols", "t_rcd", "t_rp", "t_cas", "t_ras", "refresh", "urgency", "quantum"} {
		doc.Params[k] = uint64(len(k)) * 37
	}
	for i := 0; i < 6; i++ {
		doc.Masters = append(doc.Masters, calMaster{Kind: "sequential", Base: uint32(i) << 20, Beats: 8, Count: 150 + i, Frac: 0.25, Window: 1 << 16})
	}
	body, _ := json.Marshal(doc) // a fixed struct of plain fields cannot fail to encode
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var in calDoc
		if err := json.Unmarshal(data, &in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sum := sha256.Sum256(data)
		in.Sum = hex.EncodeToString(sum[:])
		out, err := json.Marshal(in)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
	}))
	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = newClient(stub.URL)
	}
	run := func(d time.Duration) (int, time.Duration) {
		counts := make([]int, len(cls))
		start := time.Now()
		deadline := start.Add(d)
		var wg sync.WaitGroup
		for i := range cls {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					status, _, _, err := cls[i].post("/", body)
					if err == nil && status == http.StatusOK {
						counts[i]++
					}
				}
			}(i)
		}
		wg.Wait()
		n := 0
		for _, c := range counts {
			n += c
		}
		return n, time.Since(start)
	}
	return &calibrator{ref: httpCalRef, run: run, stop: func() {
		for _, c := range cls {
			c.close()
		}
		stub.Close()
	}}
}
