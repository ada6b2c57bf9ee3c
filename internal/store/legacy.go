// Import of the one-file-per-key layout: "<name>.res" files, each one
// envelope, plus a "simidx1" index of the access order. Open moves such
// a directory into the log once — each file verified, appended and then
// removed, so a crash midway leaves every result in the log or in its
// file, never neither — and nothing reads that layout afterwards.
package store

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// fileName is the layout's name for key: every byte outside
// [A-Za-z0-9._-] rewritten to '-', plus the ".res" suffix.
func fileName(key string) string {
	b := []byte(key)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			b[i] = '-'
		}
	}
	return string(b) + legacySuffix
}

// legacyRanks maps each file name a valid simidx1 index lists to its
// position, 0 the most recent; nil when raw is no such index.
func legacyRanks(raw []byte) map[string]int {
	_, lines, err := indexLines(raw, legacyIndexMagic, 1)
	if err != nil {
		return nil
	}
	ranks := make(map[string]int, len(lines))
	for i, line := range lines {
		size, key, ok := strings.Cut(line, " ")
		if _, err := strconv.ParseInt(size, 10, 64); !ok || err != nil {
			return nil
		}
		ranks[fileName(key)] = i
	}
	return ranks
}

// importLegacy appends the layout's result files to the log, coldest
// first: in the order of its index when that lists exactly these files,
// else by modification time — the order the layout itself fell back on.
// A file that does not verify is counted as corrupt at open and
// removed. An append that fails stops the import; the files left are
// imported by the next Open.
func (s *Store) importLegacy(files []os.DirEntry, rawIndex []byte) {
	log.Printf("store: importing %d result files of the one-file-per-key layout in %s", len(files), s.dir)
	ranks := legacyRanks(rawIndex)
	byIndex := len(ranks) == len(files)
	mod := make(map[string]time.Time, len(files))
	for _, de := range files {
		if _, ok := ranks[de.Name()]; !ok {
			byIndex = false
		}
		if info, err := de.Info(); err == nil {
			mod[de.Name()] = info.ModTime()
		}
	}
	slices.SortStableFunc(files, func(a, b os.DirEntry) int {
		if byIndex {
			return ranks[b.Name()] - ranks[a.Name()]
		}
		return mod[a.Name()].Compare(mod[b.Name()])
	})
	for _, de := range files {
		path := filepath.Join(s.dir, de.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			log.Printf("store: importing %s: %v", path, err)
			return
		}
		key, body, err := DecodeEnvelope(raw)
		if err == nil && !validKey(key) {
			err = fmt.Errorf("invalid key %q", key)
		}
		if err != nil {
			s.dropCorruptAtOpen(path, err.Error())
			os.Remove(path)
			continue
		}
		at, err := s.appendLocked(appendTrailer(raw))
		if err != nil {
			log.Printf("store: importing %s: %v", path, err)
			return
		}
		s.setLocked(key, int64(len(body)), at)
		os.Remove(path)
	}
}
