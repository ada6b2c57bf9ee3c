package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
	if err := s.Put("run:TL:x", []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName("run:TL:x"))

	cases := []struct {
		name   string
		mangle func(t *testing.T, raw []byte) []byte
	}{
		{"flipped body bit", func(t *testing.T, raw []byte) []byte {
			raw[len(raw)-1] ^= 1
			return raw
		}},
		{"truncated", func(t *testing.T, raw []byte) []byte {
			return raw[:len(raw)-4]
		}},
		{"no header", func(t *testing.T, raw []byte) []byte {
			return []byte("garbage with no newline")
		}},
		{"wrong magic", func(t *testing.T, raw []byte) []byte {
			return append([]byte("wrongmagic a 1 k\n"), 'x')
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := s.Put("run:TL:x", []byte("payload-bytes")); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.mangle(t, raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("run:TL:x"); ok {
				t.Fatalf("corrupt file served: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file not removed (stat err %v)", err)
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
	if err := s1.Put("run:TL:keep", []byte("good")); err != nil {
		t.Fatal(err)
	}
	// A torn write the rename never committed...
	if err := os.WriteFile(filepath.Join(dir, "run-TL-torn.res.12345.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	// ...a file whose envelope header is broken (length disagrees with
	// the file size — swept at Open, which indexes headers only)...
	torn := filepath.Join(dir, fileName("run:TL:torn"))
	if err := os.WriteFile(torn, []byte("simstore1 ffff 99 run:TL:torn\nxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	// ...and one whose header is consistent but whose body bytes
	// rotted: indexing keeps it (no body hashing at startup) and the
	// first Get catches and deletes it.
	rotten := filepath.Join(dir, fileName("run:TL:rotten"))
	if err := os.WriteFile(rotten, []byte("simstore1 ffff 4 run:TL:rotten\nrot!"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	if s2.Len() != 2 {
		t.Fatalf("reopened store has %d entries, want 2 (keep + unread rotten)", s2.Len())
	}
	if _, ok := s2.Get("run:TL:rotten"); ok {
		t.Fatal("bit-rotted body served")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range left {
		if de.Name() == indexName { // the startup index rides along
			continue
		}
		names = append(names, de.Name())
	}
	if len(names) != 1 || names[0] != fileName("run:TL:keep") {
		t.Fatalf("directory not swept: %v", names)
	}
	st := s2.StatsSnapshot()
	if st.Corrupt != 2 {
		t.Fatalf("corrupt counter %d, want 2 (one at Open, one at Get)", st.Corrupt)
	}
}

func TestOpenRejectsNewerGenerationEnvelopesAndCrashedPutTmp(t *testing.T) {
	// A store directory inherited from a NEWER binary generation: its
	// envelope magic is unknown to this build, so the files must read
	// as corrupt and be dropped — a downgraded process serves misses
	// and recomputes, it never misparses a future format. Alongside it,
	// a tmp file exactly as a Put crashed mid-write would leave it
	// (CreateTemp name for a real key, valid-looking envelope inside):
	// swept at Open, never indexed, never served.
	dir := t.TempDir()
	s1 := mustOpen(t, dir, 0)
	if err := s1.Put("run:TL:old", []byte("from-this-generation")); err != nil {
		t.Fatal(err)
	}

	// The future-format file: shaped like an envelope, wrong magic.
	future := filepath.Join(dir, fileName("run:TL:future"))
	body := []byte("future-payload")
	env := fmt.Sprintf("simstore2 %064x %d run:TL:future\n%s", 0, len(body), body)
	if err := os.WriteFile(future, []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}
	// The crashed Put: a tmp file whose CONTENT is a perfectly valid
	// current-generation envelope — only the .tmp name marks it as
	// never-committed. Indexing it anyway would resurrect a write that
	// was never acknowledged.
	crashed := filepath.Join(dir, fileName("run:TL:crashed")+".8821.tmp")
	s2 := mustOpen(t, t.TempDir(), 0) // scratch store renders a valid envelope
	if err := s2.Put("run:TL:crashed", []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(s2.Dir(), fileName("run:TL:crashed")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(crashed, valid, 0o644); err != nil {
		t.Fatal(err)
	}

	s3 := mustOpen(t, dir, 0)
	if s3.Len() != 1 {
		t.Fatalf("reopened store indexed %d entries, want 1", s3.Len())
	}
	if _, ok := s3.Get("run:TL:future"); ok {
		t.Fatal("newer-generation envelope served")
	}
	if _, ok := s3.Get("run:TL:crashed"); ok {
		t.Fatal("crashed Put's tmp file served")
	}
	if got, ok := s3.Get("run:TL:old"); !ok || !bytes.Equal(got, []byte("from-this-generation")) {
		t.Fatalf("surviving entry lost: %q %v", got, ok)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range left {
		if de.Name() == indexName { // the startup index rides along
			continue
		}
		names = append(names, de.Name())
	}
	if len(names) != 1 || names[0] != fileName("run:TL:old") {
		t.Fatalf("directory not swept: %v", names)
	}
	// The future file counted as corruption (it was removed on sight);
	// the tmp sweep is routine, not corruption.
	if st := s3.StatsSnapshot(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter %d, want 1", st.Corrupt)
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
	// The evicted entry's file is gone from disk too.
	if _, err := os.Stat(filepath.Join(dir, fileName("k:b"))); !os.IsNotExist(err) {
		t.Fatalf("evicted file still on disk (stat err %v)", err)
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
	// File mtimes carry the LRU order across restarts; make the gap
	// visible to coarse filesystem clocks.
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, fileName("k:old")), past, past); err != nil {
		t.Fatal(err)
	}
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
		// Space the mtimes out so coarse filesystem clocks preserve the
		// write order for the reopen's LRU reconstruction.
		past := time.Now().Add(time.Duration(i-10) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, fileName(fmt.Sprintf("k:%d", i))), past, past); err != nil {
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

func TestSanitizedKeyCollisionIsAMissNotAnAlias(t *testing.T) {
	// "run:a" and "run-a" share a file name after sanitization; the
	// envelope key check must keep them from reading each other.
	s := mustOpen(t, t.TempDir(), 0)
	if err := s.Put("run:a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("run-a", []byte("second")); err != nil {
		t.Fatal(err)
	}
	// Last write wins the shared file; the other key must miss, never
	// serve the other's bytes.
	if got, ok := s.Get("run:a"); ok && string(got) != "first" {
		t.Fatalf("run:a served aliased bytes %q", got)
	}
	if got, ok := s.Get("run-a"); ok && string(got) != "second" {
		t.Fatalf("run-a served aliased bytes %q", got)
	}
}

// TestGCUnderConcurrentReads races the size-budget GC against
// concurrent readers: every successful Get must return exactly the
// bytes written for that key, never a torn file or another key's
// body. Run with -race.
func TestGCUnderConcurrentReads(t *testing.T) {
	const keys = 32
	body := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i%26)}, 200+i)
	}
	// Budget holds only a fraction of the key space, so writers force
	// constant eviction while readers probe.
	s := mustOpen(t, t.TempDir(), 2000)

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

	st := s.StatsSnapshot()
	if st.Evictions == 0 {
		t.Fatal("GC never ran; the race went unexercised")
	}
	if st.Corrupt != 0 {
		t.Fatalf("readers saw %d corrupt files", st.Corrupt)
	}
	if st.Bytes > 2000+int64(keys)+400 {
		t.Fatalf("store grew past its budget: %d bytes", st.Bytes)
	}
}

func TestFileNameSanitization(t *testing.T) {
	got := fileName("run:TL:ab/cd é")
	if strings.ContainsAny(got, ":/ é") || !strings.HasSuffix(got, suffix) {
		t.Fatalf("fileName = %q", got)
	}
}

func TestOpenCountsAndLogsCorruptEnvelopes(t *testing.T) {
	// The startup sweep must not just silently tidy up: operators need
	// the count (surfaced through healthz via Stats) to notice a disk
	// or crash-corruption problem before it becomes a re-simulation
	// storm. chaos.CorruptResults is the same fault the cluster drills
	// use, so this pins the exact envelope damage they inject.
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

	s2 := mustOpen(t, dir, 0)
	st := s2.StatsSnapshot()
	if st.CorruptAtOpen != 3 || st.Corrupt != 3 {
		t.Fatalf("stats %+v, want 3 corrupt at open", st)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store has %d entries, want the 1 survivor", s2.Len())
	}
	// The damaged envelopes are deleted, not quarantined: a later Put
	// of the same key must start clean.
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, de := range left {
		if strings.HasSuffix(de.Name(), ".res") {
			files++
		}
	}
	if files != 1 {
		t.Fatalf("%d envelope files survive, want 1", files)
	}
	// A second reopen of the now-clean directory counts zero.
	if st := mustOpen(t, dir, 0).StatsSnapshot(); st.CorruptAtOpen != 0 {
		t.Fatalf("clean reopen reports %d corrupt", st.CorruptAtOpen)
	}
}
