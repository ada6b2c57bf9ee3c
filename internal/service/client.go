// The backend client: the typed HTTP face of one simd worker process,
// extracted from the handler wire types so every frontend — the shard
// router, smoke harnesses, operational tooling — speaks to a backend
// through one vocabulary instead of hand-rolled requests. The client
// is deliberately thin: a backend's responses are deterministic and
// byte-addressed, so the router forwards bodies verbatim and this
// client never re-encodes what a backend said.
package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"repro/internal/agg"
	"repro/internal/obs"
)

// The one retry/backoff vocabulary for every client of a saturated
// backend — the shard router's sweep fan-out and the service's own
// in-process sweep rows both wait through RetryWait, so the two paths
// cannot drift apart again.
//
// MinRetryWait floors the sleep (Retry-After is integer seconds, so
// "0" means "soon", not "busy-loop"); MaxRetryWait caps it whatever
// the header advertised; DefaultRetryWait is used when the header is
// missing or unparseable — a 503 that advertised SOMETHING we cannot
// read still said "busy", and the honest response is the wait a
// minimally loaded server would have asked for (1s), not the floor.
const (
	MinRetryWait     = 50 * time.Millisecond
	MaxRetryWait     = 5 * time.Second
	DefaultRetryWait = time.Second
)

// Tenant-aware scheduling headers — the wire form of the identity the
// weighted-fair scheduler (internal/sched) queues by. Both are
// optional on every endpoint: a request without them is tenant
// "default" in the endpoint's natural class (interactive for /run and
// /compare, batch for the sweep family).
const (
	// TenantHeader names the header carrying the caller's tenant for
	// fair-share accounting. Values must match [A-Za-z0-9._-]{1,64}.
	TenantHeader = "X-Tenant"
	// ClassHeader carries the scheduling class, "interactive" or
	// "batch" — it overrides the endpoint's default class, letting a
	// latency-sensitive scripted sweep run interactive or a bulk /run
	// replay demote itself to batch.
	ClassHeader = "X-Class"
)

// RetryWait maps a 503's Retry-After header value onto the backoff a
// retry loop should sleep. Integer seconds are honored and clamped to
// [MinRetryWait, MaxRetryWait]; a missing or unparseable value (an
// HTTP-date, garbage) yields DefaultRetryWait rather than silently
// falling through to the floor and hammering a saturated pool.
func RetryWait(header string) time.Duration {
	secs, err := strconv.Atoi(header)
	if err != nil || secs < 0 {
		return DefaultRetryWait
	}
	return RetryWaitSeconds(secs)
}

// RetryWaitSeconds clamps an advertised whole-second wait to
// [MinRetryWait, MaxRetryWait] — the in-process form of RetryWait for
// callers that hold the number itself (the service's own sweep
// retries) rather than a header to parse.
func RetryWaitSeconds(secs int) time.Duration {
	// Cap before multiplying: a huge advertised wait must clamp to
	// MaxRetryWait, not overflow time.Duration into the 50ms floor and
	// hammer the one backend that asked for the most patience.
	if secs > int(MaxRetryWait/time.Second) {
		return MaxRetryWait
	}
	wait := time.Duration(secs) * time.Second
	if wait < MinRetryWait {
		return MinRetryWait
	}
	return wait
}

// SleepRetryAfter waits out RetryWait(header); false means ctx ended
// first.
func SleepRetryAfter(ctx context.Context, header string) bool {
	return sleepFor(ctx, RetryWait(header))
}

// sleepFor sleeps d unless ctx ends first.
func sleepFor(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Client speaks the simd HTTP API to one backend server.
type Client struct {
	// Base is the backend's root URL (no trailing slash), e.g.
	// "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport; nil selects http.DefaultClient.
	HTTP *http.Client
}

// maxClientBodyBytes bounds a backend response read; simulation
// bodies are small, so anything past this is a protocol violation,
// not a result.
const maxClientBodyBytes = 16 << 20

// unreachableError marks an error of the transport: the backend never
// answered the request.
type unreachableError struct{ error }

func (e unreachableError) Unwrap() error { return e.error }

// Unreachable reports whether err, from any Client call, means the
// backend did not answer — a transport failure, or the context ending
// first — as opposed to an answer the call could not use (an unexpected
// status, an undecodable body). It is the line a caller's circuit
// breaker draws: only an unanswered call counts against the backend.
func Unreachable(err error) bool {
	return errors.As(err, new(unreachableError))
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Do sends one request and returns the status, headers and body. A
// non-2xx status is NOT an error — the caller routes on it (503 means
// back off, 400 means the request was bad); err is reserved for
// transport failure, the signal that the backend itself is
// unreachable (Unreachable reports it). header entries (may be nil)
// are copied onto the request — the write-back and manifest paths ride
// their protocol headers through here.
func (c *Client) Do(ctx context.Context, method, path string, body []byte, header http.Header) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for name, vals := range header {
		for _, v := range vals {
			req.Header.Add(name, v)
		}
	}
	// Propagate the caller's request ID (the shard router puts the
	// front-door ID in ctx), so one ID traces a request through every
	// hop — router access log, backend log, backend error body.
	if rid := obs.RequestIDFrom(ctx); rid != "" {
		req.Header.Set(obs.RequestIDHeader, rid)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, nil, nil, unreachableError{err}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxClientBodyBytes))
	if err != nil {
		return 0, nil, nil, unreachableError{err}
	}
	return resp.StatusCode, resp.Header, out, nil
}

// jsonBody is the header block of a request with a JSON body.
var jsonBody = http.Header{"Content-Type": {"application/json"}}

// call is Do for the typed calls below: it returns the answer when its
// status is one of want and turns any other status into an error
// naming what was being done — the backend answered, so the error is
// not Unreachable.
func (c *Client) call(ctx context.Context, what, method, path string, body []byte, header http.Header, want ...int) (int, []byte, error) {
	status, _, resp, err := c.Do(ctx, method, path, body, header)
	if err != nil {
		return 0, nil, err
	}
	if !slices.Contains(want, status) {
		return status, resp, fmt.Errorf("%s status %d: %.4096s", what, status, resp)
	}
	return status, resp, nil
}

// AnalyzeSweep submits a grid to POST /sweep/analyze and decodes the
// analysis document. A non-2xx status returns the error body's
// message; the raw body is returned alongside so callers that assert
// byte-identity across deployments (the smokes) can compare exactly
// what the server said.
func (c *Client) AnalyzeSweep(ctx context.Context, req AnalyzeRequest) (*agg.Analysis, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	status, _, respBody, err := c.Do(ctx, http.MethodPost, "/sweep/analyze", body, jsonBody)
	if err != nil {
		return nil, nil, err
	}
	if status != http.StatusOK {
		var e errorResponse
		if json.Unmarshal(respBody, &e) == nil && e.Error != "" {
			return nil, respBody, fmt.Errorf("service: analyze status %d: %s", status, e.Error)
		}
		return nil, respBody, fmt.Errorf("service: analyze status %d", status)
	}
	var doc agg.Analysis
	if err := json.Unmarshal(respBody, &doc); err != nil {
		return nil, respBody, fmt.Errorf("service: decoding analysis: %w", err)
	}
	return &doc, respBody, nil
}

// DecodeSweepStream consumes an NDJSON /sweep response body: onRow is
// invoked with each raw data line — callers decode into their own row
// shape (SweepRow for a backend stream, the shard router's row for a
// cluster stream) and may abort by returning an error. The terminal
// summary line is decoded and returned with done=true; done=false
// with a nil error means the stream ended WITHOUT a summary and must
// be treated as truncated. This is the one parser for the terminal-row
// protocol — smokes, tests and tools all read sweep streams through
// it, so a protocol change cannot silently diverge between readers.
func DecodeSweepStream(body io.Reader, onRow func(line []byte) error) (summary SweepSummary, done bool, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if done {
			return summary, done, fmt.Errorf("service: line after the terminal summary: %q", line)
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return summary, false, fmt.Errorf("service: sweep line %q: %w", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &summary); err != nil {
				return summary, false, fmt.Errorf("service: sweep summary %q: %w", line, err)
			}
			done = true
			continue
		}
		if onRow != nil {
			if err := onRow(line); err != nil {
				return summary, false, err
			}
		}
	}
	return summary, done, sc.Err()
}

// FetchHealth reads and decodes the backend's GET /healthz.
func (c *Client) FetchHealth(ctx context.Context) (h Health, err error) {
	_, body, err := c.call(ctx, "healthz", http.MethodGet, "/healthz", nil, nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(body, &h)
	}
	return h, err
}

// EnumerateResults lists every store key the backend holds under
// prefix (GET /results?prefix=...) — the drain path's work list. An
// empty prefix lists everything.
func (c *Client) EnumerateResults(ctx context.Context, prefix string) ([]string, error) {
	_, body, err := c.call(ctx, "enumerate", http.MethodGet, "/results?prefix="+url.QueryEscape(prefix), nil, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var out struct {
		Keys []string `json:"keys"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("enumerate: %w", err)
	}
	return out.Keys, nil
}

// FetchResult fetches one stored result body by its exact store key
// (GET /results?key=...). ok=false with a nil error means the backend
// answered 404 — the key is genuinely absent, which enumeration races
// (a concurrent GC) make an ordinary outcome, not a failure.
func (c *Client) FetchResult(ctx context.Context, key string) (body []byte, ok bool, err error) {
	status, body, err := c.call(ctx, "fetch "+key, http.MethodGet, "/results?key="+url.QueryEscape(key), nil, nil,
		http.StatusOK, http.StatusNotFound)
	if err != nil || status == http.StatusNotFound {
		return nil, false, err
	}
	return body, true, nil
}

// StoreResult stores body under its result key in the backend's cache
// tiers (POST /results) — a thief's write-back to the variant's owner,
// or a drain's copy to the key's new owner. stolen, when set, is the
// write-back's "owner->thief" audit tag.
func (c *Client) StoreResult(ctx context.Context, key string, body []byte, stolen string) error {
	hdr := jsonBody.Clone()
	hdr.Set(ResultKeyHeader, key)
	if stolen != "" {
		hdr.Set(StolenHeader, stolen)
	}
	_, _, err := c.call(ctx, "store "+key, http.MethodPost, "/results", body, hdr, http.StatusNoContent)
	return err
}

// RunBatch posts lines — each the body of one /run request, or with
// compare set of one /compare — to the backend's POST /batch under the
// scheduling identity in header, and returns the records the reply
// settled, in line order. Fewer records than lines is a short reply:
// the lines past the last record were not answered. A status other than
// 200 (a backend without the route) is an error that is not
// Unreachable.
func (c *Client) RunBatch(ctx context.Context, compare bool, lines [][]byte, header http.Header) ([]BatchRecord, error) {
	path := "/batch?op=run"
	if compare {
		path = "/batch?op=compare"
	}
	_, reply, err := c.call(ctx, "batch", http.MethodPost, path, bytes.Join(lines, []byte("\n")), header, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return parseBatchReply(reply, len(lines)), nil
}

// FetchManifest reads sweep id's manifest from the backend (GET
// /sweep/{id}). ok=false with a nil error means the backend answered
// 404: it holds no manifest for the id. A copy that is not a
// well-formed manifest of id is an error, not a manifest.
func (c *Client) FetchManifest(ctx context.Context, id string) (m *SweepManifest, ok bool, err error) {
	status, body, err := c.call(ctx, "fetch manifest "+id, http.MethodGet, "/sweep/"+url.PathEscape(id), nil, nil,
		http.StatusOK, http.StatusNotFound)
	if err != nil || status == http.StatusNotFound {
		return nil, false, err
	}
	m, err = decodeManifest(body, id)
	return m, err == nil, err
}

// PutManifest merge-persists m into the backend's store (PUT
// /sweep/{id}): the backend unions the progress bits with any copy it
// already holds, so concurrent writers never clobber each other.
func (c *Client) PutManifest(ctx context.Context, m *SweepManifest) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, _, err = c.call(ctx, "put manifest "+m.ID, http.MethodPut, "/sweep/"+url.PathEscape(m.ID), body, jsonBody, http.StatusNoContent)
	return err
}
