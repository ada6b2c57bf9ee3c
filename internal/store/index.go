// Startup-index persistence. Opening a store used to cost one header
// read per envelope — O(files) stats that dominate startup for a
// 50k-result shard. The store now mirrors its in-memory bookkeeping
// (keys, sizes, access order) into one compact, checksummed index file
// alongside the envelopes, so a reopen costs a single directory
// listing plus one file read regardless of entry count.
//
// The index is advisory, never authoritative: Open cross-checks the
// listed file-name set against the actual directory listing (names
// only — no per-file stat), and any drift, parse failure or checksum
// mismatch falls back — loudly, with the IndexRebuilds counter — to
// the full header-by-header rescan that has always been correct.
// Writes are atomic (tmp + rename) and amortized: every
// indexFlushEvery mutations, plus once at Open and once at Close.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/lru"
)

// indexName is the startup index's file name. It carries no ".res"
// suffix, and fileName always appends one, so no stored key can ever
// collide with it — which is also what keeps it invisible to the
// rescan and ineligible for eviction.
const indexName = "index"

// indexMagic tags the index format; bump it if the layout changes so
// old files read as stale and trigger a rescan instead of misparsing.
const indexMagic = "simidx1"

// indexFlushEvery is how many mutations (writes and evictions) may
// accumulate before the index is rewritten. Amortizing keeps the
// per-Put cost negligible; a crash inside the window only stales the
// index, and a stale index is detected and rebuilt at the next Open.
const indexFlushEvery = 64

// indexEntry is one line of the startup index: an entry's key and its
// size (Cost). The write generation (Value) is not persisted.
type indexEntry = lru.Entry[int64]

// encodeIndex renders the index file: a header line with the magic,
// the SHA-256 of the payload and the entry count, then one
// "<size> <key>" line per entry in access order, most recent first.
func encodeIndex(entries []indexEntry) []byte {
	var payload bytes.Buffer
	for _, e := range entries {
		payload.WriteString(strconv.FormatInt(e.Cost, 10))
		payload.WriteByte(' ')
		payload.WriteString(e.Key)
		payload.WriteByte('\n')
	}
	sum := sha256.Sum256(payload.Bytes())
	header := fmt.Sprintf("%s %s %d\n", indexMagic, hex.EncodeToString(sum[:]), len(entries))
	out := make([]byte, 0, len(header)+payload.Len())
	out = append(out, header...)
	return append(out, payload.Bytes()...)
}

// parseIndex parses and verifies an index file body. Any defect —
// bad magic, checksum mismatch, count mismatch, malformed line,
// invalid key — is an error; the caller treats every error the same
// way (full rescan), so the messages only serve the log line.
func parseIndex(raw []byte) ([]indexEntry, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	fields := strings.Split(string(raw[:nl]), " ")
	if len(fields) != 3 || fields[0] != indexMagic {
		return nil, fmt.Errorf("bad header")
	}
	payload := raw[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[1] {
		return nil, fmt.Errorf("checksum mismatch")
	}
	count, err := strconv.Atoi(fields[2])
	if err != nil || count < 0 {
		return nil, fmt.Errorf("bad entry count")
	}
	entries := make([]indexEntry, 0, count)
	for len(payload) > 0 {
		line := payload
		if i := bytes.IndexByte(payload, '\n'); i >= 0 {
			line, payload = payload[:i], payload[i+1:]
		} else {
			payload = nil
		}
		sp := bytes.IndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed entry line")
		}
		size, err := strconv.ParseInt(string(line[:sp]), 10, 64)
		if err != nil || size < 0 {
			return nil, fmt.Errorf("bad entry size")
		}
		key := string(line[sp+1:])
		if !validKey(key) {
			return nil, fmt.Errorf("invalid key in index")
		}
		entries = append(entries, indexEntry{Key: key, Cost: size})
	}
	if len(entries) != count {
		return nil, fmt.Errorf("header says %d entries, found %d", count, len(entries))
	}
	return entries, nil
}

// loadIndex reads and validates the startup index against the actual
// set of result-file names in the directory. It returns the entries
// (most recent first) and the index file's size, or ok=false when the
// store must fall back to a rescan. resNames is the set of ".res"
// file names ReadDir found; the index is usable only if the file-name
// sets match exactly — a name-set comparison, deliberately not a
// per-file stat, so validation stays O(1) file reads.
func (s *Store) loadIndex(resNames map[string]bool) (entries []indexEntry, size int64, ok bool) {
	path := filepath.Join(s.dir, indexName)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			log.Printf("store: unreadable startup index %s: %v", path, err)
		}
		return nil, 0, false
	}
	entries, err = parseIndex(raw)
	if err != nil {
		log.Printf("store: corrupt startup index %s: %v", path, err)
		return nil, 0, false
	}
	if len(entries) != len(resNames) {
		log.Printf("store: stale startup index %s: %d entries, %d result files", path, len(entries), len(resNames))
		return nil, 0, false
	}
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		name := fileName(e.Key)
		if !resNames[name] || seen[name] {
			log.Printf("store: stale startup index %s: entry %q has no matching file", path, e.Key)
			return nil, 0, false
		}
		seen[name] = true
	}
	return entries, int64(len(raw)), true
}

// maybeFlushLocked notes one index-relevant mutation and reports
// whether the caller should rewrite the index once it releases the
// store lock.
func (s *Store) maybeFlushLocked() bool {
	s.mutations++
	if s.mutations < indexFlushEvery {
		return false
	}
	s.mutations = 0
	return true
}

// flushIndex rewrites the startup index from the current in-memory
// state: snapshot under the store lock, encode and write outside it,
// atomic tmp + rename. flushMu serializes flushers so a slow older
// snapshot can never rename over a newer one.
func (s *Store) flushIndex() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	entries := slices.Collect(s.entries.All())
	s.mu.Unlock()

	data := encodeIndex(entries)
	commit, err := s.stage(indexName, data)
	if err == nil {
		err = commit()
	}
	if err != nil {
		return err
	}

	s.mu.Lock()
	s.indexBytes = int64(len(data))
	s.mu.Unlock()
	return nil
}

// Close flushes the startup index so the next Open is O(1) file
// reads. The store holds no descriptors, so Close is only this flush;
// the store technically remains usable afterwards, but callers should
// treat Close as the end of its life.
func (s *Store) Close() error {
	return s.flushIndex()
}

// Enumerate returns every stored key with the given prefix (""
// matches all), most recently accessed first. It reads only the
// in-memory bookkeeping — no IO — so draining a shard can snapshot a
// 100k-entry slice cheaply. The snapshot is point-in-time: keys
// written or evicted afterwards are not reflected, which is why a
// drain re-enumerates for stragglers before retiring the shard.
func (s *Store) Enumerate(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, s.entries.Len())
	for e := range s.entries.All() {
		if strings.HasPrefix(e.Key, prefix) {
			keys = append(keys, e.Key)
		}
	}
	return keys
}
