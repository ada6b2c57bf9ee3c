// Startup-index persistence. Recovering the entry table from the log
// means reading and checksumming every segment — O(bytes). The store
// instead mirrors its in-memory bookkeeping (each entry's key, record
// location and size, in access order, plus every segment's length)
// into one compact, checksummed index file beside the segments, so a
// reopen costs one directory listing, one file read and one open per
// segment, and reads no record.
//
// The index is advisory, never authoritative: Open uses it only if
// every segment it lists exists at exactly the recorded length and no
// other segment does. Any drift, parse failure or checksum mismatch
// falls back — loudly, with the IndexRebuilds counter — to the rescan
// of every segment. The index is written atomically (tmp + rename) at
// Open and at Close, never on the Put path: a process that dies
// between them leaves a stale index, and its next Open rescans.
package store

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// indexName is the startup index's file name. It carries no segment
// suffix, so it is never mistaken for part of the log.
const indexName = "index"

// indexMagic tags the index format; bump it if the layout changes so
// old files read as stale and trigger a rescan instead of misparsing.
// legacyIndexMagic tags the one-file-per-key layout's index, read only
// to import that layout in its access order.
const (
	indexMagic       = "simidx2"
	legacyIndexMagic = "simidx1"
)

// indexEntry is one entry line of the startup index.
type indexEntry struct {
	key  string
	cost int64
	at   loc
}

// segLen is one segment line of the startup index.
type segLen struct{ id, size int64 }

// encodeIndex renders the index file: a header line with the magic,
// the SHA-256 of the payload and the segment and entry counts, then
// one "<id> <length>" line per segment and one
// "<segment> <offset> <length> <size> <key>" line per entry in access
// order, most recent first.
func encodeIndex(segs []segLen, entries []indexEntry) []byte {
	var payload []byte
	for _, g := range segs {
		payload = strconv.AppendInt(payload, g.id, 10)
		payload = strconv.AppendInt(append(payload, ' '), g.size, 10)
		payload = append(payload, '\n')
	}
	for _, e := range entries {
		payload = strconv.AppendInt(payload, e.at.seg, 10)
		payload = strconv.AppendInt(append(payload, ' '), e.at.off, 10)
		payload = strconv.AppendInt(append(payload, ' '), e.at.n, 10)
		payload = strconv.AppendInt(append(payload, ' '), e.cost, 10)
		payload = append(append(append(payload, ' '), e.key...), '\n')
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %d %d\n", indexMagic, hex.EncodeToString(sum[:]), len(segs), len(entries))
	return append([]byte(header), payload...)
}

// indexLines verifies an index file's header — magic, checksum, and as
// many counts as the format has — and returns the counts and the
// payload's lines.
func indexLines(raw []byte, magic string, counts int) ([]int, []string, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, nil, fmt.Errorf("no header line")
	}
	fields := strings.Split(string(raw[:nl]), " ")
	if len(fields) != 2+counts || fields[0] != magic {
		return nil, nil, fmt.Errorf("bad header")
	}
	payload := raw[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[1] {
		return nil, nil, fmt.Errorf("checksum mismatch")
	}
	ns := make([]int, counts)
	total := 0
	for i := range ns {
		n, err := strconv.Atoi(fields[2+i])
		if err != nil || n < 0 {
			return nil, nil, fmt.Errorf("bad count")
		}
		ns[i], total = n, total+n
	}
	var lines []string
	if len(payload) > 0 {
		if payload[len(payload)-1] != '\n' {
			return nil, nil, fmt.Errorf("unterminated line")
		}
		lines = strings.Split(string(payload[:len(payload)-1]), "\n")
	}
	if len(lines) != total {
		return nil, nil, fmt.Errorf("header says %d lines, found %d", total, len(lines))
	}
	return ns, lines, nil
}

// parseIndex parses and verifies an index file. Any defect — bad
// magic, checksum mismatch, count mismatch, malformed line, invalid or
// repeated key — is an error; the caller treats every error the same
// way (rescan), so the messages only serve the log line.
func parseIndex(raw []byte) ([]segLen, []indexEntry, error) {
	counts, lines, err := indexLines(raw, indexMagic, 2)
	if err != nil {
		return nil, nil, err
	}
	segs := make([]segLen, counts[0])
	for i := range segs {
		f := strings.Split(lines[i], " ")
		if len(f) != 2 {
			return nil, nil, fmt.Errorf("malformed segment line")
		}
		if segs[i].id, err = strconv.ParseInt(f[0], 10, 64); err != nil {
			return nil, nil, fmt.Errorf("bad segment id")
		}
		if segs[i].size, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			return nil, nil, fmt.Errorf("bad segment length")
		}
	}
	entries := make([]indexEntry, counts[1])
	seen := make(map[string]bool, len(entries))
	for i, line := range lines[counts[0]:] {
		f := strings.SplitN(line, " ", 5)
		if len(f) != 5 || !validKey(f[4]) || seen[f[4]] {
			return nil, nil, fmt.Errorf("malformed entry line")
		}
		var nums [4]int64
		for j := range nums {
			if nums[j], err = strconv.ParseInt(f[j], 10, 64); err != nil || nums[j] < 0 {
				return nil, nil, fmt.Errorf("bad entry field")
			}
		}
		seen[f[4]] = true
		entries[i] = indexEntry{key: f[4], cost: nums[3], at: loc{seg: nums[0], off: nums[1], n: nums[2]}}
	}
	return segs, entries, nil
}

// loadIndex installs the entry table from the startup index, if it
// parses and matches the open segments exactly: the same ids, each at
// its recorded length, and every entry inside one. It returns the
// index file's size, or ok=false when the store must rescan.
func (s *Store) loadIndex(raw []byte) (size int64, ok bool) {
	if raw == nil || bytes.HasPrefix(raw, []byte(legacyIndexMagic+" ")) {
		return 0, false // none, or the older layout's: importLegacy reads it
	}
	path := filepath.Join(s.dir, indexName)
	segs, entries, err := parseIndex(raw)
	if err != nil {
		log.Printf("store: corrupt startup index %s: %v", path, err)
		return 0, false
	}
	stale := len(segs) != len(s.segs)
	for _, g := range segs {
		if seg, ok := s.segs[g.id]; !ok || seg.size != g.size {
			stale = true
		}
	}
	for _, e := range entries {
		if seg, ok := s.segs[e.at.seg]; !ok || e.at.off+e.at.n > seg.size {
			stale = true
		}
	}
	if stale {
		log.Printf("store: stale startup index %s: segments differ from the directory", path)
		return 0, false
	}
	// Index order is most-recent-first: coldest in first, so the most
	// recent ends at the hot end.
	for _, e := range slices.Backward(entries) {
		s.setLocked(e.key, e.cost, e.at)
	}
	return int64(len(raw)), true
}

// flushIndex rewrites the startup index from the current in-memory
// state: snapshot under the store lock, encode and write outside it,
// atomic tmp + rename. flushMu serializes flushers so a slow older
// snapshot can never rename over a newer one.
func (s *Store) flushIndex() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	segs := make([]segLen, 0, len(s.segs))
	for _, g := range s.segs {
		segs = append(segs, segLen{g.id, g.size})
	}
	entries := make([]indexEntry, 0, s.entries.Len())
	for e := range s.entries.All() {
		entries = append(entries, indexEntry{key: e.Key, cost: e.Cost, at: *e.Value})
	}
	s.mu.Unlock()
	slices.SortFunc(segs, func(a, b segLen) int { return cmp.Compare(a.id, b.id) })

	data := encodeIndex(segs, entries)
	if err := writeFileAtomic(filepath.Join(s.dir, indexName), data); err != nil {
		return err
	}
	s.mu.Lock()
	s.indexBytes = int64(len(data))
	s.mu.Unlock()
	return nil
}

// writeFileAtomic writes data to a temp file beside path and renames
// it over path, so a reader (or a crash) sees the old file or the new
// one, never a torn one. A failure leaves no temp file behind.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	return nil
}

// Close flushes the startup index, so the next Open reads no record,
// and closes the segment files. Afterwards Get and Peek miss and Put
// fails.
func (s *Store) Close() error {
	err := s.flushIndex()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.closeFiles()
	}
	return err
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
