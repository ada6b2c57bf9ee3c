// The log: records, segment files, appends, recovery and compaction.
//
// A record is one envelope followed by a trailer line: the CRC-32C of
// the envelope in 8 hex digits, then '\n'. The envelope's own checksum
// covers only the body; the trailer covers the key too, so a damaged
// key can never file a record under another key when the log is
// rescanned.
//
// Records are appended at the tail of the active segment; once a
// record would take it past segmentBytes, the segment is sealed and a
// new one started (a record larger than that gets a segment of its
// own). Sealed segments are never written again — only read, and
// deleted once compaction has copied their live records out. Segment
// ids only grow, so file-name order is log order, and a (segment,
// offset) pair names one record for the life of the store.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/lru"
)

// segmentBytes is the size at which the active segment is sealed. It
// bounds the dead bytes that wait in the active segment, the size of
// one compaction, and — with the budget — how many files a store
// holds: a full 256 MiB store is about 64 of them.
const segmentBytes = 4 << 20

// segSuffix names segment files and tmpSuffix an index write in
// progress; fileSuffix named the result files of the one-file-per-key
// layout, which Open deletes.
const (
	segSuffix  = ".seg"
	tmpSuffix  = ".tmp"
	fileSuffix = ".res"
)

// recordStart is how every record begins; recovery resyncs on it.
var recordStart = []byte(magic + " ")

// trailerBytes is the length of a record's trailer line.
const trailerBytes = 9

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord renders key and body as one record.
func encodeRecord(key string, body []byte) []byte {
	return appendTrailer(EncodeEnvelope(key, body))
}

// appendTrailer appends the trailer line to the envelope env, making
// it a record.
func appendTrailer(env []byte) []byte {
	t := trailer(env)
	return append(env, t[:]...)
}

// trailer returns the trailer line for the envelope env.
func trailer(env []byte) (t [trailerBytes]byte) {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(env, castagnoli))
	hex.Encode(t[:8], sum[:])
	t[8] = '\n'
	return t
}

// decodeRecord verifies a whole record — trailer, then envelope — and
// returns its key and body.
func decodeRecord(rec []byte) (key string, body []byte, err error) {
	if len(rec) < trailerBytes {
		return "", nil, errors.New("store: record too short")
	}
	env := rec[:len(rec)-trailerBytes]
	if t := trailer(env); !bytes.Equal(rec[len(env):], t[:]) {
		return "", nil, errors.New("store: record checksum mismatch")
	}
	return DecodeEnvelope(env)
}

// segment is one open segment file.
type segment struct {
	id int64
	f  *os.File
	// size is the logical end: the end of the last whole record. A
	// failed append may leave bytes past it; the next one overwrites
	// them.
	size int64
	// live is the bytes of the records the entry table points at;
	// size - live are dead.
	live int64
}

// loc is where an entry's record lives.
type loc struct {
	seg, off, n int64
}

func segName(id int64) string { return fmt.Sprintf("%010d%s", id, segSuffix) }

func parseSegName(name string) (int64, bool) {
	digits, ok := strings.CutSuffix(name, segSuffix)
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseInt(digits, 10, 64)
	return id, err == nil && id > 0 && segName(id) == name
}

// openSegment opens an existing segment file; its size is the file's.
func (s *Store) openSegment(id int64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(id)), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.segs[id] = &segment{id: id, f: f, size: info.Size()}
	s.nextID = max(s.nextID, id)
	return nil
}

// closeFiles closes every segment file.
func (s *Store) closeFiles() {
	for _, g := range s.segs {
		g.f.Close()
	}
}

// appendLocked writes rec at the tail of the log — one positioned
// write — and returns where it landed. It starts a new segment first
// when rec would take the active one past the limit. On error the
// logical end stays where it was.
func (s *Store) appendLocked(rec []byte) (loc, error) {
	g := s.active
	if g == nil || (g.size > 0 && g.size+int64(len(rec)) > s.segLimit) {
		s.nextID++
		f, err := os.OpenFile(filepath.Join(s.dir, segName(s.nextID)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return loc{}, err
		}
		g = &segment{id: s.nextID, f: f}
		s.segs[g.id] = g
		s.active = g
	}
	if _, err := g.f.WriteAt(rec, g.size); err != nil {
		return loc{}, err
	}
	at := loc{seg: g.id, off: g.size, n: int64(len(rec))}
	g.size += at.n
	return at, nil
}

// compactLocked keeps the log's dead bytes at most its live bytes,
// except for what waits in the active segment: while they are more,
// the sealed segment with the most dead bytes is compacted.
func (s *Store) compactLocked() {
	for s.dead > s.live {
		var worst *segment
		for _, g := range s.segs {
			if g == s.active || g.size == g.live {
				continue
			}
			if worst == nil || g.size-g.live > worst.size-worst.live ||
				(g.size-g.live == worst.size-worst.live && g.id < worst.id) {
				worst = g
			}
		}
		if worst == nil {
			return
		}
		if err := s.compactSegLocked(worst); err != nil {
			log.Printf("store: compacting %s: %v", segName(worst.id), err)
			return
		}
	}
}

// compactSegLocked re-appends g's live records at the tail, coldest
// first (so the log order a rescan reads back stays the access order),
// repoints their entries without moving them in the access order, and
// deletes g. A live record that no longer verifies is dropped, not
// copied. g must not be the active segment.
func (s *Store) compactSegLocked(g *segment) error {
	var moving []lru.Entry[*loc]
	for e := range s.entries.All() {
		if e.Value.seg == g.id {
			moving = append(moving, e)
		}
	}
	var data []byte
	if len(moving) > 0 {
		data = make([]byte, g.size)
		if _, err := g.f.ReadAt(data, 0); err != nil {
			return err
		}
	}
	for _, e := range slices.Backward(moving) {
		at := e.Value
		rec := data[at.off : at.off+at.n]
		if key, _, err := decodeRecord(rec); err != nil || key != e.Key {
			s.stats.Corrupt++
			log.Printf("store: dropping corrupt envelope %s@%d while compacting", segName(g.id), at.off)
			s.dropLocked(e.Key)
			continue
		}
		moved, err := s.appendLocked(rec)
		if err != nil {
			return err
		}
		g.live -= at.n
		s.segs[moved.seg].live += moved.n
		s.dead += at.n
		*at = moved
	}
	g.f.Close()
	delete(s.segs, g.id)
	s.live, s.dead = s.live-g.live, s.dead-(g.size-g.live)
	return os.Remove(filepath.Join(s.dir, segName(g.id)))
}

// scan adds g's records to the entry table in log order — a later
// record of a key replaces an earlier one. A record that does not
// verify is skipped by resyncing at the next one that does, and
// counted; bytes after the last good record that cannot be a whole
// record are a torn tail, and are truncated away. It reports whether g
// held damage.
func (s *Store) scan(g *segment) (damaged bool, err error) {
	data := make([]byte, g.size)
	if _, err := g.f.ReadAt(data, 0); err != nil {
		return false, fmt.Errorf("store: reading %s: %w", segName(g.id), err)
	}
	for off := 0; off < len(data); {
		if key, bodyLen, n, ok := verifyRecord(data[off:]); ok {
			s.setLocked(key, bodyLen, loc{seg: g.id, off: int64(off), n: int64(n)})
			off += n
			continue
		}
		next := nextRecord(data, off+1)
		// Walk the damaged stretch record by record where the headers
		// still give the lengths, so each lost record counts once.
		at := off
		for at < next {
			n, ok := recordExtent(data[at:next])
			if !ok {
				break
			}
			s.dropCorruptAtOpen(fmt.Sprintf("%s@%d", segName(g.id), at), "record does not verify")
			damaged = true
			at += n
		}
		if at < next && next == len(data) {
			log.Printf("store: truncating torn tail of %s at %d (%d bytes)", segName(g.id), at, len(data)-at)
			if err := g.f.Truncate(int64(at)); err != nil {
				return damaged, fmt.Errorf("store: %w", err)
			}
			data = data[:at]
			break
		}
		if at < next {
			s.dropCorruptAtOpen(fmt.Sprintf("%s@%d", segName(g.id), at), "unparseable bytes")
			damaged = true
		}
		off = next
	}
	g.size = int64(len(data))
	return damaged, nil
}

// verifyRecord reports whether b starts with a whole record that
// verifies, and its key, body length and total length.
func verifyRecord(b []byte) (key string, bodyLen int64, n int, ok bool) {
	_, bodyLen, key, bodyAt, err := parseHeader(b[:min(len(b), maxHeaderBytes)])
	if err != nil || !validKey(key) {
		return "", 0, 0, false
	}
	if bodyLen > int64(len(b)-bodyAt-trailerBytes) {
		return "", 0, 0, false
	}
	n = bodyAt + int(bodyLen) + trailerBytes
	if _, _, err := decodeRecord(b[:n]); err != nil {
		return "", 0, 0, false
	}
	return key, bodyLen, n, true
}

// nextRecord returns the offset of the first record at or after from
// that verifies, or len(data).
func nextRecord(data []byte, from int) int {
	for from < len(data) {
		i := bytes.Index(data[from:], recordStart)
		if i < 0 {
			break
		}
		if _, _, _, ok := verifyRecord(data[from+i:]); ok {
			return from + i
		}
		from += i + 1
	}
	return len(data)
}

// recordExtent recovers the length of a damaged record at the start of
// b from what survives of its header line: the last two fields, body
// length and key, plus the trailer. ok is false when they do not parse or the record
// would run past b.
func recordExtent(b []byte) (n int, ok bool) {
	nl := bytes.IndexByte(b[:min(len(b), maxHeaderBytes)], '\n')
	if nl < 0 {
		return 0, false
	}
	fields := strings.Split(string(b[:nl]), " ")
	if len(fields) < 3 || !validKey(fields[len(fields)-1]) {
		return 0, false
	}
	bodyLen, err := strconv.ParseInt(fields[len(fields)-2], 10, 64)
	if err != nil || bodyLen < 0 || bodyLen > int64(len(b)-nl-1-trailerBytes) {
		return 0, false
	}
	return nl + 1 + int(bodyLen) + trailerBytes, true
}
