package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
)

// system is the program under test, started in-process behind real
// loopback HTTP listeners: one worker, or a router over several. url is
// where clients post.
type system struct {
	url     string
	workers []*service.Server
	servers []*httptest.Server
	router  *shard.Router
	dirs    []string
}

// startWorkers starts n service workers, each with its own store
// directory under tmp; an empty tmp starts them memory-only.
func startWorkers(tmp string, n int, opt service.Options) (*system, error) {
	sys := &system{}
	for i := 0; i < n; i++ {
		o := opt
		if tmp != "" {
			dir, err := os.MkdirTemp(tmp, "store-")
			if err != nil {
				sys.close()
				return nil, err
			}
			sys.dirs = append(sys.dirs, dir)
			o.StoreDir = dir
		}
		srv, err := service.New(o)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.workers = append(sys.workers, srv)
		sys.servers = append(sys.servers, httptest.NewServer(srv.Handler()))
	}
	sys.url = sys.servers[0].URL
	return sys, nil
}

// startCluster starts n workers and a router in front of them, the way
// internal/shard's own tests build a cluster.
func startCluster(tmp string, n int, wopt service.Options, ropt shard.Options) (*system, error) {
	sys, err := startWorkers(tmp, n, wopt)
	if err != nil {
		return nil, err
	}
	for _, ts := range sys.servers {
		ropt.Backends = append(ropt.Backends, ts.URL)
	}
	rt, err := shard.New(ropt)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.router = rt
	front := httptest.NewServer(rt.Handler())
	sys.servers = append(sys.servers, front)
	sys.url = front.URL
	return sys, nil
}

// close stops the front first, then the workers, and removes the
// store directories.
func (s *system) close() {
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i].Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
}

// client is one closed-loop caller holding one keep-alive connection. It
// is plain net/http rather than service.Client because the calibration
// load shares it and must run no code of this repository.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr}, url: url}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and returns the whole reply.
func (c *client) post(path string, body []byte) (int, http.Header, []byte, error) {
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// get fetches path and returns the body of a 200 reply.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, nil
}

// scrape reads /metrics into a name{labels} -> value table, summing
// series that differ only in the router-added shard label, so worker
// counters read the same behind a router as on a bare worker.
type scrape struct {
	body   []byte
	values map[string]float64
}

func (c *client) scrape() (scrape, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return scrape{}, err
	}
	fams, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		return scrape{}, fmt.Errorf("parsing /metrics: %w", err)
	}
	values := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			v, err := strconv.ParseFloat(s.Value, 64)
			if err != nil {
				continue
			}
			var key strings.Builder
			key.WriteString(s.Name)
			for _, l := range s.Labels {
				if l.Name == "shard" {
					continue
				}
				key.WriteString("," + l.Name + "=" + l.Value)
			}
			values[key.String()] += v
		}
	}
	return scrape{body: body, values: values}, nil
}

// delta is after[key] - before[key].
func delta(before, after scrape, key string) float64 {
	return after.values[key] - before.values[key]
}

// cacheShares adds, from two scrapes, where the lookups between them
// were answered: the router's cache, a worker's memory or disk tier, an
// in-flight duplicate, or a simulation. The shares sum to 1.
func cacheShares(before, after scrape, samples map[string][]float64) {
	counts := map[string]float64{
		"shard.router_hit_share": delta(before, after, "simd_router_cache_hits_total"),
	}
	total := counts["shard.router_hit_share"]
	for _, tier := range []string{"memory_hit", "disk_hit", "coalesced", "miss"} {
		n := delta(before, after, "simd_cache_requests_total,tier="+tier)
		counts["service."+tier+"_share"] = n
		total += n
	}
	if total == 0 {
		return
	}
	for name, n := range counts {
		samples[name] = []float64{n / total}
	}
}

// timing is a parsed X-Timing header.
type timing struct {
	queue, simulate, encode time.Duration
}

// parseTiming reads "queue=..;simulate=..;encode=.." (service.Timing.Header).
func parseTiming(h string) (timing, bool) {
	var t timing
	if h == "" {
		return t, false
	}
	for _, part := range strings.Split(h, ";") {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return t, false
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return t, false
		}
		switch name {
		case "queue":
			t.queue = d
		case "simulate":
			t.simulate = d
		case "encode":
			t.encode = d
		}
	}
	return t, true
}
