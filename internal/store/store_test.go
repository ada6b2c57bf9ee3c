package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

func mustOpen(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustOpenSized opens a store whose segments are sealed at segLimit
// bytes, so a test can reach many segments and compactions quickly.
func mustOpenSized(t testing.TB, dir string, maxBytes, segLimit int64) *Store {
	t.Helper()
	s, err := open(dir, maxBytes, segLimit)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recordOf returns the path of the segment holding key's record and
// where in it the record lies.
func recordOf(t *testing.T, s *Store, key string) (string, loc) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries.Peek(key)
	if !ok {
		t.Fatalf("%s not stored", key)
	}
	return filepath.Join(s.dir, segName(e.Value.seg)), *e.Value
}

// dirFiles lists the file names in dir, split into segments (in log
// order) and everything else.
func dirFiles(t testing.TB, dir string) (segs, other []string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if _, ok := parseSegName(de.Name()); ok {
			segs = append(segs, de.Name())
		} else {
			other = append(other, de.Name())
		}
	}
	return segs, other
}

// segBytes sums the sizes of the segment files in dir.
func segBytes(t testing.TB, dir string) int64 {
	t.Helper()
	segs, _ := dirFiles(t, dir)
	var n int64
	for _, name := range segs {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// writeAt overwrites bytes of the file at path.
func writeAt(t testing.TB, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	body := []byte(`{"cycles":12345}`)
	if err := s.Put("run:TL:abc123", body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("run:TL:abc123")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("get = %q, %v", got, ok)
	}
	if _, ok := s.Get("run:TL:other"); ok {
		t.Fatal("missing key reported present")
	}
	st := s.StatsSnapshot()
	if st.Entries != 1 || st.Bytes != int64(len(body)) || st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEnvelopeMatchesItsFormula holds EncodeEnvelope to the envelope's
// definition — the header "<magic> <hex sha256> <len> <key>\n", then
// the body — over generated keys and bodies, and reads each back.
func TestEnvelopeMatchesItsFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := []string{"", "run:TL:abc", "compare:" + strings.Repeat("f", 64), "run:RTL:0123"}
	for i := range 200 {
		key := keys[i%len(keys)]
		body := make([]byte, rng.Intn(4096))
		rng.Read(body)
		if i%7 == 0 {
			body = nil
		}
		sum := sha256.Sum256(body)
		want := append([]byte(fmt.Sprintf("%s %s %d %s\n", magic, hex.EncodeToString(sum[:]), len(body), key)), body...)
		got := EncodeEnvelope(key, body)
		if !bytes.Equal(got, want) {
			t.Fatalf("envelope %d differs from the formula:\n got %q\nwant %q", i, got[:min(len(got), 120)], want[:min(len(want), 120)])
		}
		if k, b, err := DecodeEnvelope(got); err != nil || k != key || !bytes.Equal(b, body) {
			t.Fatalf("envelope %d read back as key %q, %d bytes (err %v)", i, k, len(b), err)
		}
	}
}

func TestResultsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, 0)
	bodies := map[string][]byte{}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("compare:hash%d", i)
		bodies[key] = []byte(fmt.Sprintf(`{"row":%d}`, i))
		if err := s1.Put(key, bodies[key]); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh process over the same directory serves every result
	// byte-identically.
	s2 := mustOpen(t, dir, 0)
	if s2.Len() != 5 {
		t.Fatalf("reopened store has %d entries", s2.Len())
	}
	for key, want := range bodies {
		got, ok := s2.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: got %q, %v", key, got, ok)
		}
	}
}

func TestCorruptFilesReadAsMissesAndAreRemoved(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)

	// Each case damages the key's newest record — the tail of the
	// segment — in place.
	cases := []struct {
		name   string
		mangle func(t *testing.T, path string, at loc)
	}{
		{"flipped body bit", func(t *testing.T, path string, at loc) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			writeAt(t, path, at.off+at.n-trailerBytes-1, []byte{raw[at.off+at.n-trailerBytes-1] ^ 1})
		}},
		{"truncated", func(t *testing.T, path string, at loc) {
			if err := os.Truncate(path, at.off+at.n-4); err != nil {
				t.Fatal(err)
			}
		}},
		{"no header", func(t *testing.T, path string, at loc) {
			writeAt(t, path, at.off, bytes.Repeat([]byte("g"), int(at.n)))
		}},
		{"wrong magic", func(t *testing.T, path string, at loc) {
			writeAt(t, path, at.off, []byte("wrongmagic"))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := s.Put("run:TL:x", []byte("payload-bytes")); err != nil {
				t.Fatal(err)
			}
			path, at := recordOf(t, s, "run:TL:x")
			c.mangle(t, path, at)
			if got, ok := s.Get("run:TL:x"); ok {
				t.Fatalf("corrupt record served: %q", got)
			}
			if s.Len() != 0 {
				t.Fatal("corrupt record's entry not dropped")
			}
		})
	}
	if st := s.StatsSnapshot(); st.Corrupt != uint64(len(cases)) {
		t.Fatalf("corrupt counter %d, want %d", st.Corrupt, len(cases))
	}
}

func TestOpenSweepsCorruptAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, 0)
	for _, k := range []string{"run:TL:keep", "run:TL:broken", "run:TL:rotten"} {
		if err := s1.Put(k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	path, broken := recordOf(t, s1, "run:TL:broken")
	_, rotten := recordOf(t, s1, "run:TL:rotten")
	// A record whose header is broken...
	writeAt(t, path, broken.off, []byte("XX"))
	// ...one whose body bytes rotted (the header still parses; the
	// checksums catch it)...
	writeAt(t, path, rotten.off+rotten.n-trailerBytes-1, []byte("!"))
	// ...a torn tail, as a Put killed mid-write leaves it...
	torn := encodeRecord("run:TL:torn", []byte("never acknowledged"))
	writeAt(t, path, rotten.off+rotten.n, torn[:len(torn)-5])
	// ...and an index write the rename never committed.
	if err := os.WriteFile(filepath.Join(dir, indexName+".12345"+tmpSuffix), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}

	// s1 was never closed, so its index is stale and Open rescans.
	s2 := mustOpen(t, dir, 0)
	st := s2.StatsSnapshot()
	if s2.Len() != 1 || st.CorruptAtOpen != 2 || st.Corrupt != 2 {
		t.Fatalf("reopened store has %d entries and stats %+v, want keep alone and 2 corrupt at open", s2.Len(), st)
	}
	if got, ok := s2.Get("run:TL:keep"); !ok || string(got) != "payload of run:TL:keep" {
		t.Fatalf("surviving entry lost: %q %v", got, ok)
	}
	// The damaged segment was compacted away and the temp file swept:
	// the directory holds one fresh segment and the index.
	segs, other := dirFiles(t, dir)
	if len(segs) != 1 || segs[0] == segName(1) || len(other) != 1 || other[0] != indexName {
		t.Fatalf("directory not swept: segments %v, other %v", segs, other)
	}
}

func TestOpenRejectsNewerGenerationEnvelopesAndTornPuts(t *testing.T) {
	// A log holding a record from a NEWER binary generation: its
	// envelope magic is unknown to this build, so it must read as
	// corrupt and be dropped — a downgraded process serves misses and
	// recomputes, it never misparses a future format. Behind it, the
	// crash of a Put: a torn record at the tail of the log. It was never
	// acknowledged and may not be served.
	dir := t.TempDir()
	s1 := mustOpen(t, dir, 0)
	if err := s1.Put("run:TL:old", []byte("from-this-generation")); err != nil {
		t.Fatal(err)
	}
	path, old := recordOf(t, s1, "run:TL:old")
	body := []byte("future-payload")
	future := appendTrailer([]byte(fmt.Sprintf("simstore2 %064x %d run:TL:future\n%s", 0, len(body), body)))
	crashed := encodeRecord("run:TL:crashed", []byte("uncommitted"))
	writeAt(t, path, old.off+old.n, append(future, crashed[:len(crashed)-1]...))

	s3 := mustOpen(t, dir, 0)
	if s3.Len() != 1 {
		t.Fatalf("reopened store indexed %d entries, want 1", s3.Len())
	}
	if _, ok := s3.Get("run:TL:future"); ok {
		t.Fatal("newer-generation envelope served")
	}
	if _, ok := s3.Get("run:TL:crashed"); ok {
		t.Fatal("crashed Put served")
	}
	if got, ok := s3.Get("run:TL:old"); !ok || !bytes.Equal(got, []byte("from-this-generation")) {
		t.Fatalf("surviving entry lost: %q %v", got, ok)
	}
	// The future record counted as corruption; the torn tail is
	// routine, not corruption.
	if st := s3.StatsSnapshot(); st.Corrupt != 1 || st.CorruptAtOpen != 1 {
		t.Fatalf("corrupt counters %+v, want 1", st)
	}
}

func TestGCEvictsLeastRecentlyAccessed(t *testing.T) {
	dir := t.TempDir()
	body := bytes.Repeat([]byte("x"), 100)
	// Room for three 100-byte bodies plus the startup index file,
	// which counts against the budget too.
	s := mustOpen(t, dir, 450)
	for _, k := range []string{"k:a", "k:b", "k:c"} {
		if err := s.Put(k, body); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh a: the eviction victim must now be b.
	if _, ok := s.Get("k:a"); !ok {
		t.Fatal("a missing")
	}
	if err := s.Put("k:d", body); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k:b"); ok {
		t.Fatal("b survived; LRU order ignored")
	}
	for _, k := range []string{"k:a", "k:c", "k:d"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s evicted, want b only", k)
		}
	}
	st := s.StatsSnapshot()
	if st.Evictions != 1 || st.Bytes != 300 || st.Entries != 3 {
		t.Fatalf("stats %+v", st)
	}
	// The evicted record stays dead across a clean restart.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 450)
	if _, ok := s2.Get("k:b"); ok {
		t.Fatal("evicted entry came back after a restart")
	}
	if s2.Len() != 3 {
		t.Fatalf("reopened store has %d entries, want 3", s2.Len())
	}
}

func TestGCNeverEvictsTheEntryJustWritten(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 10) // budget below a single body
	body := bytes.Repeat([]byte("y"), 64)
	if err := s.Put("k:a", body); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k:b", body); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k:b"); !ok {
		t.Fatal("freshly written entry was evicted")
	}
	if s.Len() != 1 {
		t.Fatalf("len %d, want 1 (older entry evicted)", s.Len())
	}
}

func TestLRUOrderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	body := bytes.Repeat([]byte("z"), 100)
	s1 := mustOpen(t, dir, 1000)
	if err := s1.Put("k:old", body); err != nil {
		t.Fatal(err)
	}
	// s1 is never closed, as after a crash: the log order carries the
	// LRU order across the restart.
	if err := s1.Put("k:new", body); err != nil {
		t.Fatal(err)
	}

	// Budget sized so that, with the startup index counted, the third
	// write evicts exactly the stalest entry.
	s2 := mustOpen(t, dir, 350)
	if err := s2.Put("k:third", body); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("k:old"); ok {
		t.Fatal("stalest entry survived the post-restart GC")
	}
	if _, ok := s2.Get("k:new"); !ok {
		t.Fatal("fresher entry evicted")
	}
}

func TestOpenEnforcesShrunkenBudget(t *testing.T) {
	// A store reopened with a smaller budget sheds its oldest entries
	// at Open — a read-only workload must not keep it over budget.
	dir := t.TempDir()
	body := bytes.Repeat([]byte("q"), 100)
	s1 := mustOpen(t, dir, 1000)
	for i := 0; i < 5; i++ {
		if err := s1.Put(fmt.Sprintf("k:%d", i), body); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustOpen(t, dir, 250)
	st := s2.StatsSnapshot()
	if st.Bytes > 250 || st.Entries != 2 || st.Evictions != 3 {
		t.Fatalf("reopened stats %+v", st)
	}
	// The survivors are the most recently written.
	for _, k := range []string{"k:3", "k:4"} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("%s evicted, want oldest-first", k)
		}
	}
}

func TestTouchRefreshesRecencyWithoutReading(t *testing.T) {
	// Touch is the memory-tier hook: a result served from an upstream
	// cache must still look hot to this store's GC.
	body := bytes.Repeat([]byte("t"), 100)
	s := mustOpen(t, t.TempDir(), 450) // three bodies + the startup index
	for _, k := range []string{"k:a", "k:b", "k:c"} {
		if err := s.Put(k, body); err != nil {
			t.Fatal(err)
		}
	}
	s.Touch("k:a")
	s.Touch("k:nonexistent") // harmless
	if err := s.Put("k:d", body); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k:b"); ok {
		t.Fatal("b survived; Touch did not refresh a")
	}
	if _, ok := s.Get("k:a"); !ok {
		t.Fatal("touched entry evicted")
	}
	if st := s.StatsSnapshot(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("touch moved hit/miss counters: %+v", st)
	}
}

func TestPeekServesWithoutMovingHitMissCounters(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	if err := s.Put("k:a", []byte("body")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Peek("k:a"); !ok || string(got) != "body" {
		t.Fatalf("peek hit = %q, %v", got, ok)
	}
	if _, ok := s.Peek("k:none"); ok {
		t.Fatal("peek invented an entry")
	}
	st := s.StatsSnapshot()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("peek moved counters: %+v", st)
	}
	// Get still counts.
	s.Get("k:a")
	if st := s.StatsSnapshot(); st.Hits != 1 {
		t.Fatalf("get stopped counting: %+v", st)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	for _, key := range []string{"", "has space", "has\nnewline", "has\ttab"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("key %q accepted", key)
		}
	}
}

// TestGCUnderConcurrentReads races the size-budget GC and compaction
// against concurrent readers: segments are small, so writers seal and
// compact them constantly — a compaction copies records a reader is
// about to read and closes and deletes the file under it. Every
// successful Get must return exactly the bytes written for that key,
// never a torn record or another key's body. Run with -race.
func TestGCUnderConcurrentReads(t *testing.T) {
	const keys = 32
	body := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i%26)}, 200+i)
	}
	// Budget holds only a fraction of the key space, so writers force
	// constant eviction while readers probe.
	dir := t.TempDir()
	s := mustOpenSized(t, dir, 2000, 1024)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				if err := s.Put(fmt.Sprintf("k:%d", i), body(i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(int64(w))
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				got, ok := s.Get(fmt.Sprintf("k:%d", i))
				if ok && !bytes.Equal(got, body(i)) {
					t.Errorf("k:%d served wrong bytes (%d of them)", i, len(got))
					return
				}
			}
		}(int64(100 + r))
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	checkTotals(t, s)
	st := s.StatsSnapshot()
	if st.Evictions == 0 {
		t.Fatal("GC never ran; the race went unexercised")
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatal("the first segment was never compacted; the race went unexercised")
	}
	if st.Corrupt != 0 {
		t.Fatalf("readers saw %d corrupt records", st.Corrupt)
	}
	if st.Bytes > 2000+int64(keys)+400 {
		t.Fatalf("store grew past its budget: %d bytes", st.Bytes)
	}
}

func TestOpenCountsAndLogsCorruptEnvelopes(t *testing.T) {
	// The startup recovery must not just silently tidy up: operators
	// need the count (surfaced through healthz via Stats) and a log line
	// per record to notice a disk or crash-corruption problem before it
	// becomes a re-simulation storm. chaos.CorruptResults is the same
	// fault the cluster drills use, so this pins the exact envelope
	// damage they inject.
	dir := t.TempDir()
	s1 := mustOpen(t, dir, 0)
	keys := []string{"run:TL:aa", "run:TL:bb", "run:TL:cc", "run:TL:dd"}
	for _, k := range keys {
		if err := s1.Put(k, []byte("payload for "+k)); err != nil {
			t.Fatal(err)
		}
	}
	damaged, err := chaos.CorruptResults(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if damaged != 3 {
		t.Fatalf("damaged %d envelopes, want 3", damaged)
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	s2 := mustOpen(t, dir, 0)
	log.SetOutput(os.Stderr)
	st := s2.StatsSnapshot()
	if st.CorruptAtOpen != 3 || st.Corrupt != 3 {
		t.Fatalf("stats %+v, want 3 corrupt at open", st)
	}
	if n := strings.Count(logged.String(), "dropping corrupt envelope"); n != 3 {
		t.Fatalf("logged %d dropped envelopes, want 3:\n%s", n, logged.String())
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store has %d entries, want the 1 survivor", s2.Len())
	}
	if got, ok := s2.Get("run:TL:dd"); !ok || string(got) != "payload for run:TL:dd" {
		t.Fatalf("survivor = %q, %v", got, ok)
	}
	// The damaged records are gone, not quarantined: a later Put of the
	// same key starts clean...
	if err := s2.Put("run:TL:aa", []byte("again")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("run:TL:aa"); !ok || string(got) != "again" {
		t.Fatalf("re-Put after damage = %q, %v", got, ok)
	}
	// ...and a reopen of the now-clean directory counts zero, even one
	// that rescans every segment.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if st := mustOpen(t, dir, 0).StatsSnapshot(); st.CorruptAtOpen != 0 || st.IndexLoads != 1 {
		t.Fatalf("clean reopen: %+v", st)
	}
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	if st := mustOpen(t, dir, 0).StatsSnapshot(); st.CorruptAtOpen != 0 || st.IndexRebuilds != 1 || st.Entries != 2 {
		t.Fatalf("clean rescan: %+v", st)
	}
}
