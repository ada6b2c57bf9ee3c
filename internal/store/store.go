// Package store is the disk-backed half of the simulation service's
// content-addressed result cache. Every simulation in this repository
// is bit-reproducible, so a result is fully determined by its cache
// key (endpoint, model and spec content hash) — which makes results
// safe to persist and replay byte-identically across process
// restarts.
//
// Layout: one file per key under the store root, named after the key
// with every byte outside [A-Za-z0-9._-] rewritten to '-', plus a
// ".res" suffix (so "run:TL:<hash>" lands in "run-TL-<hash>.res").
// Each file carries a one-line envelope header — magic, the SHA-256 of
// the body, the body length and the original key — followed by the
// raw body bytes. Loads verify all three; a file that fails any check
// (torn write survived by a crash, flipped bits, a key that merely
// collides after sanitization) is treated as a miss, and genuinely
// corrupt files are deleted on sight.
//
// Writes are atomic: the envelope is written to a ".tmp" file in the
// store directory and renamed over the final name, so a reader (or a
// crash) can never observe a half-written result. Stale ".tmp" files
// from interrupted writes are swept on Open.
//
// The store is size-bounded: once the payload bytes (plus the startup
// index file, see index.go) exceed the configured budget, the
// least-recently-accessed entries are deleted until the store fits.
// Access order is tracked in memory, mirrored to file modification
// times on every hit, and persisted in the startup index, so the LRU
// order survives restarts.
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
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lru"
)

// DefaultMaxBytes is the default payload budget: 256 MiB holds
// hundreds of thousands of simulation responses.
const DefaultMaxBytes = 256 << 20

// suffix is the result-file extension; tmpSuffix marks in-progress
// atomic writes.
const (
	suffix    = ".res"
	tmpSuffix = ".tmp"
)

// magic is the envelope format tag; bump it if the header changes so
// old files read as corrupt instead of misparsing.
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
	// Evictions counts entries deleted by the size-budget GC.
	Evictions uint64 `json:"evictions"`
	// Corrupt counts files rejected (and removed) by load verification.
	Corrupt uint64 `json:"corrupt"`
	// CorruptAtOpen is the subset of Corrupt found (and deleted) while
	// indexing the directory at Open — damage that happened while the
	// store was closed (crash mid-write, disk rot, a chaos drill).
	// Exposed separately, and logged per file, because silent deletion
	// at startup is indistinguishable from data never written: a
	// recovery drill asserts on this counter.
	CorruptAtOpen uint64 `json:"corrupt_at_open"`
	// IndexBytes is the size of the persisted startup index file. It
	// counts against the byte budget but is never evicted — evicting
	// it would only trade a few KiB now for an O(files) rescan later.
	IndexBytes int64 `json:"index_bytes"`
	// IndexLoads counts Opens served from a valid startup index — the
	// O(1)-file-reads fast path.
	IndexLoads uint64 `json:"index_loads"`
	// IndexRebuilds counts Opens that fell back to the full
	// header-by-header directory rescan because the startup index was
	// missing, corrupt, or stale against the directory listing. A
	// rebuild is a recovery, not a failure — but it is loud (logged and
	// counted) because a shard that rebuilds on every boot is paying
	// O(files) startups for nothing.
	IndexRebuilds uint64 `json:"index_rebuilds"`
}

// Store is a disk-backed key→bytes result store. It is safe for
// concurrent use; it assumes it is the directory's only writer.
type Store struct {
	dir      string
	maxBytes int64

	// observe, when set, is called after each Get/Peek and Put with the
	// operation name ("get" or "put") and its wall duration — the hook
	// an observability layer turns into store-latency histograms
	// without this package importing it. Set once before the store is
	// shared; never called under the store lock.
	observe func(op string, d time.Duration)

	mu sync.Mutex
	// entries is the in-memory bookkeeping, one entry per stored result
	// in access order: its cost is the body length, its value the write
	// generation — a reader's miss-cleanup only removes the generation
	// it actually observed, so a concurrent re-Put of the key is never
	// thrown away by a stale reader.
	entries *lru.Index[int64]
	gen     int64
	stats   Stats
	// mutations counts writes and evictions since the last index
	// flush; indexBytes is the current index file's size (budgeted but
	// never evicted). flushMu serializes index flushers so an older
	// snapshot can never rename over a newer one.
	mutations  int
	indexBytes int64
	flushMu    sync.Mutex
}

// Open opens (creating if needed) a store rooted at dir, bounded to
// maxBytes of payload (<= 0 selects DefaultMaxBytes). Stale temp
// files from interrupted writes are removed, then the entry table is
// recovered from the startup index when one is present and valid —
// O(1) file reads regardless of entry count — or rebuilt by the full
// directory rescan (header read per file, corrupt envelopes deleted,
// LRU order from modification times) when it is missing, corrupt, or
// stale. Either way a fresh index is written before Open returns.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, entries: lru.NewIndex[int64]()}
	if err := s.load(); err != nil {
		return nil, err
	}
	// Enforce the budget immediately: a store reopened with a smaller
	// budget (or one that grew right up to a crash) must not wait for
	// the next Put to shed its oldest entries. Safe without the lock —
	// the store isn't published to any other goroutine yet.
	s.gcLocked("")
	// Persist what we just learned: after a rescan this replaces the
	// bad index, after an index load it folds in the GC above.
	// Best-effort — a store that cannot write its index still serves.
	if err := s.flushIndex(); err != nil {
		log.Printf("store: %v", err)
	}
	return s, nil
}

// load recovers the entry table at Open: one ReadDir to sweep temp
// files and collect the result-file name set, then the startup index
// if it validates against that set, else the full rescan.
func (s *Store) load() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var results []os.DirEntry
	resNames := make(map[string]bool)
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			os.Remove(filepath.Join(s.dir, name)) // interrupted write
			continue
		}
		if strings.HasSuffix(name, suffix) {
			results = append(results, de)
			resNames[name] = true
		}
	}
	if entries, idxSize, ok := s.loadIndex(resNames); ok {
		s.stats.IndexLoads++
		s.indexBytes = idxSize
		// Index order is most-recent-first: coldest in first, so the
		// most recent ends at the hot end.
		for _, e := range slices.Backward(entries) {
			s.gen++
			s.entries.Put(e.Key, e.Cost, s.gen)
		}
		return nil
	}
	if len(resNames) > 0 {
		// A missing index over an empty directory is a brand-new store,
		// not a defect; anything else is a real (if recoverable) event
		// that costs an O(files) startup — count and log it.
		s.stats.IndexRebuilds++
		log.Printf("store: rebuilding startup index for %s from %d result files", s.dir, len(resNames))
	}
	s.rescan(results)
	return nil
}

// dropCorruptAtOpen deletes an unreadable envelope found while
// rescanning and accounts for it — loudly. Deleting is the right
// recovery (every result is recomputable from its spec), but doing it
// silently would make startup corruption indistinguishable from data
// never written; the log line plus the CorruptAtOpen counter give
// operators and chaos drills something to see.
func (s *Store) dropCorruptAtOpen(path, reason string) {
	s.stats.Corrupt++
	s.stats.CorruptAtOpen++
	log.Printf("store: deleting corrupt envelope %s at open: %s", path, reason)
	os.Remove(path)
}

// rescan rebuilds the entry table from the result files load listed,
// and the LRU order from their modification times — the slow,
// always-correct path behind the startup index.
func (s *Store) rescan(results []os.DirEntry) {
	type seen struct {
		key  string
		size int64
		mod  time.Time
	}
	var found []seen
	for _, de := range results {
		name := de.Name()
		path := filepath.Join(s.dir, name)
		// Index from the header alone — no body read or hash, so a
		// store of hundreds of thousands of results opens in O(files)
		// stats, not O(bytes) checksums. Body bit-rot is still caught:
		// every Get verifies the full envelope and deletes on failure.
		key, size, err := readHeader(path)
		if err != nil {
			s.dropCorruptAtOpen(path, err.Error())
			continue
		}
		if fileName(key) != name {
			// A foreign or renamed file; its header key doesn't produce
			// this name, so Get would never find it. Drop it.
			s.dropCorruptAtOpen(path, "header key does not match file name")
			continue
		}
		info, err := de.Info()
		mod := time.Time{}
		if err == nil {
			mod = info.ModTime()
		}
		found = append(found, seen{key: key, size: size, mod: mod})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mod.Before(found[j].mod) })
	// Oldest first: each Put leaves the newest file at the hot end of
	// the access order.
	for _, f := range found {
		s.gen++
		s.entries.Put(f.key, f.size, s.gen)
	}
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

// fileName maps a key to its file name: every byte outside
// [A-Za-z0-9._-] becomes '-'. The envelope records the exact key, so
// two keys colliding after this rewrite read as misses, never as each
// other's results.
func fileName(key string) string {
	b := []byte(key)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			b[i] = '-'
		}
	}
	return string(b) + suffix
}

// EncodeEnvelope renders key and body in the store's self-verifying
// envelope form: a header line with magic, body checksum, length and
// key, then the raw body. Exported so the router's in-memory result
// cache can hold the exact bytes a store would persist — same
// integrity check, no second format.
func EncodeEnvelope(key string, body []byte) []byte {
	sum := sha256.Sum256(body)
	header := fmt.Sprintf("%s %s %d %s\n", magic, hex.EncodeToString(sum[:]), len(body), key)
	out := make([]byte, 0, len(header)+len(body))
	out = append(out, header...)
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

// readHeader parses just the envelope header of a result file,
// returning the recorded key and body length, and checks that the
// file size is consistent with them. It never reads or checksums the
// body — that is Get's job on each access.
func readHeader(path string) (key string, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	buf := make([]byte, maxHeaderBytes)
	n, err := f.Read(buf)
	if n == 0 && err != nil {
		return "", 0, fmt.Errorf("store: %s: %w", path, err)
	}
	_, bodyLen, key, bodyAt, err := parseHeader(buf[:n])
	if err != nil {
		return "", 0, err
	}
	info, err := f.Stat()
	if err != nil {
		return "", 0, fmt.Errorf("store: %s: %w", path, err)
	}
	if info.Size() != int64(bodyAt)+bodyLen {
		return "", 0, fmt.Errorf("store: %s: file is %d bytes, envelope says %d", path, info.Size(), int64(bodyAt)+bodyLen)
	}
	return key, bodyLen, nil
}

// readEnvelope loads and verifies one result file.
func readEnvelope(path string) (key string, body []byte, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	return DecodeEnvelope(raw)
}

// DecodeEnvelope parses and verifies an envelope produced by
// EncodeEnvelope — a store file, or an entry of the router's in-memory
// cache — returning the recorded key and body. Any mismatch — magic,
// length, checksum, malformed header — is an error.
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
// the store lock, so concurrent Gets don't serialize on IO; a file
// deleted by the GC between the index check and the read is a miss,
// and a file that fails verification is removed and a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	return s.get(key, true)
}

// Peek is Get without moving the hit/miss counters (corruption and
// access recency are still recorded). Callers that re-probe a key
// they already counted a miss for — the service's under-lock
// re-check, a sweep row's saturation retries — use it so the stats
// stay one-probe-per-request.
func (s *Store) Peek(key string) ([]byte, bool) {
	return s.get(key, false)
}

// get implements Get/Peek; count selects hit/miss accounting.
func (s *Store) get(key string, count bool) ([]byte, bool) {
	if s.observe != nil {
		start := time.Now()
		defer func() { s.observe("get", time.Since(start)) }()
	}
	s.mu.Lock()
	probed, present := s.entries.Peek(key)
	if !present {
		if count {
			s.stats.Misses++
		}
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()

	path := filepath.Join(s.dir, fileName(key))
	gotKey, body, err := readEnvelope(path)
	ok := err == nil && gotKey == key

	s.mu.Lock()
	if !ok {
		// The GC may have legitimately evicted the file between the
		// probe and the read; only an existing-but-unreadable file is
		// corruption. Either way, only clean up the entry generation
		// this reader observed — a concurrent re-Put installed a fresh
		// file (atomically with its new generation, both under this
		// lock) that the failure says nothing about.
		if e, still := s.entries.Peek(key); still && e.Value == probed.Value {
			if err != nil && !os.IsNotExist(err) {
				s.stats.Corrupt++
				os.Remove(path)
			}
			s.entries.Remove(key)
		}
		if count {
			s.stats.Misses++
		}
		s.mu.Unlock()
		return nil, false
	}
	s.entries.Get(key) // refresh recency, if the entry is still there
	if count {
		s.stats.Hits++
	}
	s.mu.Unlock()
	// Mirror the touch to the file clock so the LRU order survives a
	// restart. Best-effort and outside the lock: a failed or misdirected
	// touch (the file just evicted or replaced) only ages the entry.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return body, true
}

// Put stores body under key, atomically (tmp file + rename), then
// enforces the size budget by evicting the least-recently-accessed
// entries. Storing the same key again overwrites in place. The
// envelope is written to the temp file outside the lock (the bulk of
// the IO); the rename happens under it, so the visible file and its
// entry generation always move together — a stale reader's cleanup
// can never observe the new file with the old generation.
func (s *Store) Put(key string, body []byte) error {
	if s.observe != nil {
		start := time.Now()
		defer func() { s.observe("put", time.Since(start)) }()
	}
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	commit, err := s.stage(fileName(key), EncodeEnvelope(key, body))
	if err != nil {
		return err
	}

	s.mu.Lock()
	if err := commit(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.gen++
	s.entries.Put(key, int64(len(body)), s.gen)
	s.stats.Writes++
	s.gcLocked(key)
	flush := s.maybeFlushLocked()
	s.mu.Unlock()
	if flush {
		if err := s.flushIndex(); err != nil {
			log.Printf("store: %v", err) // advisory; next Open rescans
		}
	}
	return nil
}

// stage is the store's one atomic file writer: it writes data to a
// temp file in the store directory and returns the commit that renames
// it over name — so a reader (or a crash) sees the old file or the new
// one, never a torn one. The caller picks the moment of the rename (Put
// commits under the store lock); a failed stage or commit leaves no
// temp file behind.
func (s *Store) stage(name string, data []byte) (commit func() error, err error) {
	tmp, err := os.CreateTemp(s.dir, name+".*"+tmpSuffix)
	if err != nil {
		return nil, fmt.Errorf("store: writing %s: %w", name, err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("store: writing %s: %w", name, err)
	}
	return func() error {
		if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("store: writing %s: %w", name, err)
		}
		return nil
	}, nil
}

// gcLocked evicts from the back of the access order — O(1) per
// victim — until the store fits its byte budget. The budget covers
// payload bytes plus the startup index file; the index itself is
// never an eviction candidate (it is not an entry), it only shrinks
// the room left for results. keep (the key just written, at the
// front) is never evicted: a budget smaller than a single result
// would otherwise thrash every Put into an immediate delete.
func (s *Store) gcLocked(keep string) {
	for s.entries.Cost()+s.indexBytes > s.maxBytes && s.entries.Len() > 1 {
		victim, _ := s.entries.Oldest()
		if victim.Key == keep {
			return
		}
		s.entries.Remove(victim.Key)
		os.Remove(filepath.Join(s.dir, fileName(victim.Key)))
		s.stats.Evictions++
		s.mutations++ // stales the index; folded into the next flush
	}
}

// Touch refreshes key's LRU recency without reading the file — the
// hook for a memory tier in front of this store: results served from
// memory never call Get here, and without the touch the hottest
// results would look coldest to the GC. In-memory tick only (no
// per-hit syscall); the file mtime still ages until the next disk
// Get, so restart-order fidelity trades off against hot-path cost.
func (s *Store) Touch(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries.Get(key)
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries.Len()
}
