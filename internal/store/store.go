// Package store is the simulation service's disk-backed,
// content-addressed result cache: a worker with a store directory
// keeps its results here and nowhere else. Every simulation in this
// repository is bit-reproducible, so a result is fully determined by
// its cache key (endpoint, model and spec content hash) — which makes
// results safe to persist and replay byte-identically across process
// restarts.
//
// Layout: an append-only log of records, cut into segment files named
// "<10-digit id>.seg" (see segment.go), plus the startup index (see
// index.go). A record is one envelope — a header line with magic, the
// SHA-256 of the body, the body length and the key, then the raw body
// bytes — and a trailer line with the CRC-32C of the envelope, which
// covers the key as well. Put appends one record at the tail of the
// active segment with one positioned write: no file is created and
// nothing is renamed per result. The in-memory entry table maps each
// key to the (segment, offset, length) of its newest record; Get is one
// positioned read there, and verifies the trailer and all the header
// says. A record that fails (flipped bits, a torn write, another key's
// bytes) is a miss, and its entry is dropped.
//
// An overwritten, evicted or corrupt record becomes dead bytes. When
// the log's dead bytes exceed its live ones, the sealed segment with
// the most dead bytes is compacted: its live records are re-appended
// at the tail, keeping their access order, and the file is deleted. So
// the segments hold at most twice the live records plus one segment.
//
// The store is size-bounded: once the payload bytes (plus the startup
// index file) exceed the configured budget, the least-recently-accessed
// entries are evicted until the store fits. Access order is tracked in
// memory and persisted in the startup index, so it survives a clean
// restart; after a crash the log order (write order) stands in for it.
//
// Durability: process-crash-safe, not power-loss-safe. Nothing is
// fsynced. A process killed at any point leaves whole records plus at
// most one torn tail, which the next Open truncates; a power loss may
// lose or tear whatever the kernel had not yet written back.
//
// Bytes of another layout are never read: Open deletes the result files
// of the first, one-file-per-key layout, and an index of another format
// is an index that does not parse.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lru"
)

// DefaultMaxBytes is the default payload budget: 256 MiB holds
// hundreds of thousands of simulation responses.
const DefaultMaxBytes = 256 << 20

// magic is the envelope format tag; bump it if the header changes so
// old records read as corrupt instead of misparsing.
const magic = "simstore1"

// Stats is a snapshot of the store's counters and occupancy.
type Stats struct {
	// Entries is the number of stored results.
	Entries int `json:"entries"`
	// Bytes is the total payload bytes on disk (envelope excluded).
	Bytes int64 `json:"bytes"`
	// Hits counts Gets served from disk.
	Hits uint64 `json:"hits"`
	// Misses counts Gets that found nothing (or found corruption).
	Misses uint64 `json:"misses"`
	// Writes counts successful Puts.
	Writes uint64 `json:"writes"`
	// Evictions counts entries dropped by the size-budget GC.
	Evictions uint64 `json:"evictions"`
	// Corrupt counts records rejected (and dropped) by verification.
	Corrupt uint64 `json:"corrupt"`
	// CorruptAtOpen is the subset of Corrupt found (and dropped) while
	// recovering the log at Open — damage that happened while the store
	// was closed or behind its back (disk rot, a chaos drill). Exposed
	// separately, and logged per record, because silent dropping at
	// startup is indistinguishable from data never written: a recovery
	// drill asserts on this counter.
	CorruptAtOpen uint64 `json:"corrupt_at_open"`
	// IndexBytes is the size of the persisted startup index file. It
	// counts against the byte budget but is never evicted — evicting
	// it would only trade a few KiB now for an O(bytes) rescan later.
	IndexBytes int64 `json:"index_bytes"`
	// IndexLoads counts Opens served from a valid startup index — the
	// path that reads no record.
	IndexLoads uint64 `json:"index_loads"`
	// IndexRebuilds counts Opens that fell back to rescanning every
	// segment because the startup index was missing, corrupt, or stale
	// against the segment lengths. A rebuild is a recovery, not a
	// failure — but it is loud (logged and counted) because a shard
	// that rebuilds on every boot is paying O(bytes) startups for
	// nothing.
	IndexRebuilds uint64 `json:"index_rebuilds"`
}

// Store is a disk-backed key→bytes result store. It is safe for
// concurrent use; it assumes it is the directory's only writer.
type Store struct {
	dir      string
	maxBytes int64
	// segLimit is the size at which the active segment is sealed:
	// segmentBytes, except in tests that need many segments.
	segLimit int64

	// observe, when set, is called after each Get/Peek and Put with the
	// operation name ("get" or "put") and its wall duration — the hook
	// an observability layer turns into store-latency histograms
	// without this package importing it. Set once before the store is
	// shared; never called under the store lock.
	observe func(op string, d time.Duration)

	mu sync.Mutex
	// entries is the in-memory bookkeeping, one entry per stored result
	// in access order: its cost is the body length, its value where the
	// record lives. Compaction moves a record by rewriting the loc in
	// place, so the entry keeps its access order.
	entries *lru.Index[*loc]
	// segs holds every segment file, open; active is the one appends go
	// to (nil until the first append), nextID the last id handed out.
	segs   map[int64]*segment
	active *segment
	nextID int64
	// live and dead total the segments' live and dead record bytes.
	live, dead int64
	closed     bool
	stats      Stats
	// indexBytes is the current index file's size (budgeted but never
	// evicted). flushMu serializes index flushers so an older snapshot
	// can never rename over a newer one.
	indexBytes int64
	flushMu    sync.Mutex
}

// Open opens (creating if needed) a store rooted at dir, bounded to
// maxBytes of payload (<= 0 selects DefaultMaxBytes). The entry table
// is recovered from the startup index when it matches every segment's
// length — no record is read — or else by rescanning the segments,
// which verifies every record, truncates a torn tail and drops damaged
// records. Files of the one-file-per-key layout are deleted unread.
// Either way a fresh index is written before Open returns.
func Open(dir string, maxBytes int64) (*Store, error) {
	return open(dir, maxBytes, segmentBytes)
}

func open(dir string, maxBytes, segLimit int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, segLimit: segLimit,
		entries: lru.NewIndex[*loc](), segs: make(map[int64]*segment)}
	// The store isn't published to any other goroutine yet, so the
	// recovery below runs without the lock.
	if err := s.load(); err != nil {
		s.closeFiles()
		return nil, err
	}
	// Recovery moved the segments' accounts piecemeal; total them once.
	s.live, s.dead = 0, 0
	for _, g := range s.segs {
		s.live, s.dead = s.live+g.live, s.dead+g.size-g.live
	}
	// Enforce the budget immediately: a store reopened with a smaller
	// budget (or one that grew right up to a crash) must not wait for
	// the next Put to shed its oldest entries.
	s.gcLocked("")
	s.compactLocked()
	// Persist what we just learned: after a rescan this replaces the
	// bad index, after an index load it folds in the GC above.
	// Best-effort — a store that cannot write its index still serves.
	if err := s.flushIndex(); err != nil {
		log.Printf("store: %v", err)
	}
	return s, nil
}

// load recovers the entry table at Open: one ReadDir to find the
// segments (deleting interrupted index writes and any result file of
// the one-file-per-key layout), then the startup index if it matches
// the segments, else the rescan.
func (s *Store) load() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var ids []int64
	deleted := 0
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if id, ok := parseSegName(name); ok {
			ids = append(ids, id)
		} else if strings.HasSuffix(name, tmpSuffix) {
			os.Remove(filepath.Join(s.dir, name)) // an interrupted index write
		} else if strings.HasSuffix(name, fileSuffix) && os.Remove(filepath.Join(s.dir, name)) == nil {
			deleted++
		}
	}
	if deleted > 0 {
		log.Printf("store: deleted %d result files of the one-file-per-key layout in %s unread", deleted, s.dir)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := s.openSegment(id); err != nil {
			return err
		}
	}
	if len(ids) > 0 {
		s.active = s.segs[ids[len(ids)-1]]
	}

	path := filepath.Join(s.dir, indexName)
	rawIndex, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		log.Printf("store: unreadable startup index %s: %v", path, err)
	}
	if size, ok := s.loadIndex(rawIndex); ok {
		s.stats.IndexLoads++
		s.indexBytes = size
	} else if len(ids) > 0 {
		// A missing index over no segments is a brand-new store, not a
		// defect; anything else is a real (if recoverable) event that
		// costs an O(bytes) startup — count and log it.
		s.stats.IndexRebuilds++
		log.Printf("store: rebuilding startup index for %s from %d segments", s.dir, len(ids))
		if err := s.rescan(ids); err != nil {
			return err
		}
	}
	return nil
}

// rescan rebuilds the entry table from the segments, in log order, and
// then compacts away every segment that held damage — so the damage is
// counted once, not again at every later rescan.
func (s *Store) rescan(ids []int64) error {
	var damaged []*segment
	for _, id := range ids {
		g := s.segs[id]
		bad, err := s.scan(g)
		if err != nil {
			return err
		}
		if bad {
			damaged = append(damaged, g)
		}
	}
	for _, g := range damaged {
		if g == s.active {
			s.active = nil // compact it too: the next append starts a new segment
		}
		if err := s.compactSegLocked(g); err != nil {
			log.Printf("store: compacting damaged segment %s: %v", segName(g.id), err)
		}
	}
	return nil
}

// dropCorruptAtOpen accounts for a damaged record found while
// recovering — loudly. Dropping is the right recovery (every result is
// recomputable from its spec), but doing it silently would make
// startup corruption indistinguishable from data never written; the
// log line plus the CorruptAtOpen counter give operators and chaos
// drills something to see.
func (s *Store) dropCorruptAtOpen(where, reason string) {
	s.stats.Corrupt++
	s.stats.CorruptAtOpen++
	log.Printf("store: dropping corrupt envelope %s at open: %s", where, reason)
}

// Dir returns the store root directory.
func (s *Store) Dir() string { return s.dir }

// SetObserver installs the per-operation duration callback. Call it
// before the store is shared between goroutines (it is not
// synchronized); fn must be fast and non-blocking.
func (s *Store) SetObserver(fn func(op string, d time.Duration)) { s.observe = fn }

// StatsSnapshot returns the current counters and occupancy.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.entries.Len()
	st.Bytes = s.entries.Cost()
	st.IndexBytes = s.indexBytes
	return st
}

// validKey reports whether a key can be stored: printable ASCII with
// no whitespace, so the envelope header stays one parseable line.
func validKey(key string) bool {
	if key == "" {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] > '~' {
			return false
		}
	}
	return true
}

// EncodeEnvelope renders key and body in the store's self-verifying
// envelope form: a header line with magic, body checksum, length and
// key, then the raw body. Exported so the router's in-memory result
// cache can hold the exact bytes a store would persist — same
// integrity check, no second format.
func EncodeEnvelope(key string, body []byte) []byte {
	sum := sha256.Sum256(body)
	// Beside the fields: four separators and at most 20 length digits.
	out := make([]byte, 0, len(magic)+2*len(sum)+len(key)+len(body)+24)
	out = append(hex.AppendEncode(append(out, magic+" "...), sum[:]), ' ')
	out = append(strconv.AppendInt(out, int64(len(body)), 10), ' ')
	out = append(append(out, key...), '\n')
	return append(out, body...)
}

// maxHeaderBytes bounds the envelope header line: magic + hex digest
// + length + key, all short in practice.
const maxHeaderBytes = 4096

// parseHeader splits raw at its first newline and parses the envelope
// header line before it — magic, body checksum (hex), body length, key —
// returning the fields and the offset the body starts at. It is the one
// reader of the header format.
func parseHeader(raw []byte) (sum string, bodyLen int64, key string, bodyAt int, err error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return "", 0, "", 0, errors.New("store: no envelope header")
	}
	fields := strings.Split(string(raw[:nl]), " ")
	if len(fields) != 4 || fields[0] != magic {
		return "", 0, "", 0, errors.New("store: bad envelope header")
	}
	bodyLen, err = strconv.ParseInt(fields[2], 10, 64)
	if err != nil || bodyLen < 0 {
		return "", 0, "", 0, errors.New("store: bad envelope length")
	}
	return fields[1], bodyLen, fields[3], nl + 1, nil
}

// DecodeEnvelope parses and verifies an envelope produced by
// EncodeEnvelope — a store record, or an entry of the router's
// in-memory cache — returning the recorded key and body. Any mismatch —
// magic, length, checksum, malformed header — is an error.
func DecodeEnvelope(raw []byte) (key string, body []byte, err error) {
	want, bodyLen, key, bodyAt, err := parseHeader(raw)
	if err != nil {
		return "", nil, err
	}
	body = raw[bodyAt:]
	if int64(len(body)) != bodyLen {
		return "", nil, fmt.Errorf("store: envelope body is %d bytes, header says %d", len(body), bodyLen)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != want {
		return "", nil, errors.New("store: envelope checksum mismatch")
	}
	return key, body, nil
}

// Get returns the stored body for key. The disk read happens outside
// the store lock, so concurrent Gets don't serialize on IO; an entry
// evicted between the index check and the read is a miss, and a record
// that fails verification is dropped and a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	return s.get(key, true)
}

// Peek is Get without moving the hit/miss counters (corruption and
// access recency are still recorded). The service uses it for every
// probe that is not a request's first — its flight leader's re-probe,
// a sweep variant past its first pass — and for manifest reads, so the
// stats stay one probe per request.
func (s *Store) Peek(key string) ([]byte, bool) {
	return s.get(key, false)
}

// maxReadAttempts bounds how often get follows a record that moved
// while it was being read.
const maxReadAttempts = 4

// get implements Get/Peek; count selects hit/miss accounting. The read
// runs outside the lock. If the record moved meanwhile — compaction
// copied it (and may have closed the file under the read), or a Put
// replaced it — the read starts over at the new place. Only a record
// still where the entry points that fails verification is corrupt.
func (s *Store) get(key string, count bool) ([]byte, bool) {
	if s.observe != nil {
		start := time.Now()
		defer func() { s.observe("get", time.Since(start)) }()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for range maxReadAttempts {
		e, ok := s.entries.Peek(key)
		if !ok || s.closed {
			break
		}
		at, f := *e.Value, s.segs[e.Value.seg].f
		s.mu.Unlock()
		body, err := readRecord(f, at, key)
		s.mu.Lock()
		if err == nil {
			s.entries.Get(key) // refresh recency, if the entry is still there
			if count {
				s.stats.Hits++
			}
			return body, true
		}
		if e, ok := s.entries.Peek(key); !ok || *e.Value != at || s.closed {
			continue // moved, replaced, evicted or closed: look again
		}
		s.stats.Corrupt++
		s.dropLocked(key)
		break
	}
	if count {
		s.stats.Misses++
	}
	return nil, false
}

// readRecord reads the record at `at` from f and verifies it is a whole
// record for key.
func readRecord(f *os.File, at loc, key string) ([]byte, error) {
	raw := make([]byte, at.n)
	if _, err := f.ReadAt(raw, at.off); err != nil {
		return nil, err
	}
	got, body, err := decodeRecord(raw)
	if err == nil && got != key {
		err = fmt.Errorf("store: record holds key %q", got)
	}
	return body, err
}

// Put stores body under key and then enforces the size budget by
// evicting the least-recently-accessed entries. Storing the same key
// again replaces it. The envelope is encoded outside the lock; the
// append — one positioned write at the tail of the active segment —
// happens under it, so the record and its entry always move together.
func (s *Store) Put(key string, body []byte) error {
	if s.observe != nil {
		start := time.Now()
		defer func() { s.observe("put", time.Since(start)) }()
	}
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	rec := encodeRecord(key, body)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	at, err := s.appendLocked(rec)
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	s.setLocked(key, int64(len(body)), at)
	s.stats.Writes++
	s.gcLocked(key)
	s.compactLocked()
	return nil
}

// setLocked points key at its record at `at`; the record key pointed
// at before, if any, becomes dead bytes.
func (s *Store) setLocked(key string, cost int64, at loc) {
	s.dropLocked(key)
	s.entries.Put(key, cost, &at)
	s.segs[at.seg].live += at.n
	s.live += at.n
}

// dropLocked forgets key; its record becomes dead bytes.
func (s *Store) dropLocked(key string) {
	if e, ok := s.entries.Peek(key); ok {
		s.segs[e.Value.seg].live -= e.Value.n
		s.live, s.dead = s.live-e.Value.n, s.dead+e.Value.n
		s.entries.Remove(key)
	}
}

// gcLocked evicts from the back of the access order — O(1) per
// victim — until the store fits its byte budget. The budget covers
// payload bytes plus the startup index file; the index itself is
// never an eviction candidate (it is not an entry), it only shrinks
// the room left for results. keep (the key just written, at the
// front) is never evicted: a budget smaller than a single result
// would otherwise thrash every Put into an immediate drop.
func (s *Store) gcLocked(keep string) {
	for s.entries.Cost()+s.indexBytes > s.maxBytes && s.entries.Len() > 1 {
		victim, _ := s.entries.Oldest()
		if victim.Key == keep {
			return
		}
		s.dropLocked(victim.Key)
		s.stats.Evictions++
	}
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries.Len()
}
