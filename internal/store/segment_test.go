package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// copyDir copies the regular files of src into a fresh directory.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		in, err := os.Open(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		out.Close()
	}
	return dst
}

// checkTotals holds the store's running live and dead byte totals to
// the segments' own accounts, and those to the entries.
func checkTotals(t testing.TB, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	perSeg := map[int64]int64{}
	for e := range s.entries.All() {
		perSeg[e.Value.seg] += e.Value.n
	}
	var live, dead int64
	for id, g := range s.segs {
		if g.live != perSeg[id] {
			t.Fatalf("segment %d counts %d live bytes, its entries hold %d", id, g.live, perSeg[id])
		}
		live, dead = live+g.live, dead+g.size-g.live
	}
	if live != s.live || dead != s.dead {
		t.Fatalf("totals live %d dead %d, segments say %d and %d", s.live, s.dead, live, dead)
	}
}

// TestTruncatedActiveSegmentServesWholeRecords is the crash-point table
// for a Put killed mid-write: the active segment cut at every byte
// offset inside its last record. Each Open serves every earlier record
// byte-exact, never the torn one, and leaves a log the next Put and
// Open build on.
func TestTruncatedActiveSegmentServesWholeRecords(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	bodies := map[string][]byte{}
	for i := range 4 {
		key := fmt.Sprintf("run:TL:%d", i)
		bodies[key] = bytes.Repeat([]byte{byte('a' + i)}, 40+i)
		if err := s.Put(key, bodies[key]); err != nil {
			t.Fatal(err)
		}
	}
	path, last := recordOf(t, s, "run:TL:3")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for cut := last.off; cut < last.off+last.n; cut++ {
		crashed := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(crashed, filepath.Base(path)), cut); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, crashed, 0)
		if st := r.StatsSnapshot(); st.IndexRebuilds != 1 || st.Entries != 3 || st.Corrupt != 0 {
			t.Fatalf("cut at %d: stats %+v, want a rebuild with 3 whole records", cut, st)
		}
		for key, want := range bodies {
			got, ok := r.Get(key)
			if key == "run:TL:3" {
				if ok {
					t.Fatalf("cut at %d: torn record served: %q", cut, got)
				}
				continue
			}
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("cut at %d: %s = %q, %v", cut, key, got, ok)
			}
		}
		// The torn tail is gone: the next Put lands where it began, and
		// a clean reopen reads the log from the index.
		if err := r.Put("run:TL:3", bodies["run:TL:3"]); err != nil {
			t.Fatal(err)
		}
		if _, at := recordOf(t, r, "run:TL:3"); at.off != last.off {
			t.Fatalf("cut at %d: re-Put landed at %d, want %d", cut, at.off, last.off)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r = mustOpen(t, crashed, 0)
		if got, ok := r.Get("run:TL:3"); r.StatsSnapshot().IndexLoads != 1 || !ok || !bytes.Equal(got, bodies["run:TL:3"]) {
			t.Fatalf("cut at %d: after re-Put and reopen: %q, %v, %+v", cut, got, ok, r.StatsSnapshot())
		}
		r.Close()
	}
}

// TestStaleIndexAfterEveryPut reopens a copy of the directory after
// every Put — the state a process killed right after that Put leaves:
// the index is as last written, stale against the log. The index is
// rewritten every few Puts, so it is often stale only in the length of
// the segment it lists last. Each Open rescans and serves every
// acknowledged record byte-exact, the newest one of an overwritten key.
func TestStaleIndexAfterEveryPut(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenSized(t, dir, 0, 1000)
	want := map[string][]byte{}
	for i := range 40 {
		key := fmt.Sprintf("run:TL:%d", i%13)
		want[key] = []byte(fmt.Sprintf("body %d of %s", i, key))
		if err := s.Put(key, want[key]); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, copyDir(t, dir), 0)
		if st := r.StatsSnapshot(); st.IndexRebuilds != 1 || st.Entries != len(want) || st.Corrupt != 0 {
			t.Fatalf("after Put %d: stats %+v, want a rebuild with %d entries", i, st, len(want))
		}
		for key, body := range want {
			if got, ok := r.Get(key); !ok || !bytes.Equal(got, body) {
				t.Fatalf("after Put %d: %s = %q, %v; want %q", i, key, got, ok, body)
			}
		}
		r.Close()
		if i%3 == 2 {
			if err := s.flushIndex(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzSegmentRecover drives a store over small segments through a
// Put sequence — new keys, overwrites, and evictions and compactions
// under a small budget, with Gets stirring the access order — then
// damages one segment once: a truncation, or a byte flip read through
// the index or through a rescan. On reopen, every entry served holds
// bytes once Put under that very key, and every entry that was live at
// Close with its record undamaged is served with its newest bytes.
func FuzzSegmentRecover(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789"), uint8(0), uint32(100))
	f.Add([]byte("\x00\x10\x20\x01\x11\x21\xf0\x02\x12\x03"), uint8(1), uint32(7))
	f.Add(bytes.Repeat([]byte("\x05\x15\x25\x35\xf5"), 20), uint8(2), uint32(911))
	f.Add([]byte("overwrite overwrite overwrite"), uint8(5), uint32(2))
	// A flip that turns the key of k:3's record into k:2 before a
	// rescan: without the record trailer, k:2 would serve k:3's bytes.
	f.Add([]byte("C0a0A"), uint8('2'), uint32(81))
	f.Fuzz(func(t *testing.T, ops []byte, damage uint8, pos uint32) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		dir := t.TempDir()
		s := mustOpenSized(t, dir, 1500, 700)
		puts := map[string][][]byte{}
		for i, op := range ops {
			key := fmt.Sprintf("k:%d", op%16)
			if op >= 0xf0 {
				s.Get(key)
				continue
			}
			body := bytes.Repeat([]byte{byte(i), op}, 1+int(op)%150)
			if err := s.Put(key, body); err != nil {
				t.Fatal(err)
			}
			puts[key] = append(puts[key], body)
			checkTotals(t, s)
		}
		live := map[string]loc{}
		s.mu.Lock()
		for e := range s.entries.All() {
			live[e.Key] = *e.Value
		}
		s.mu.Unlock()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		segs, _ := dirFiles(t, dir)
		if len(segs) == 0 {
			return
		}
		name := segs[int(damage/3)%len(segs)]
		id, _ := parseSegName(name)
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil || len(raw) == 0 {
			t.Fatalf("segment %s: %d bytes, %v", name, len(raw), err)
		}
		p := int64(pos) % int64(len(raw))
		var damaged func(at loc) bool
		switch damage % 3 {
		case 0:
			if err := os.Truncate(path, p); err != nil {
				t.Fatal(err)
			}
			damaged = func(at loc) bool { return at.seg == id && at.off+at.n > p }
		default:
			writeAt(t, path, p, []byte{raw[p] ^ byte(1<<(pos%8))})
			if damage%3 == 2 {
				if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
					t.Fatal(err)
				}
			}
			damaged = func(at loc) bool { return at.seg == id && at.off <= p && p < at.off+at.n }
		}

		r := mustOpen(t, dir, 0)
		defer r.Close()
		checkTotals(t, r)
		for key, bodies := range puts {
			got, ok := r.Get(key)
			if ok && !slices.ContainsFunc(bodies, func(b []byte) bool { return bytes.Equal(b, got) }) {
				t.Fatalf("%s served %d bytes never Put under it", key, len(got))
			}
			if at, wasLive := live[key]; wasLive && !damaged(at) {
				if newest := bodies[len(bodies)-1]; !ok || !bytes.Equal(got, newest) {
					t.Fatalf("%s (undamaged, live at close) = %d bytes, %v; want its newest %d", key, len(got), ok, len(newest))
				}
			}
		}
	})
}

// TestOneFilePerKeyLayoutIsDeletedAtOpen opens a directory as the
// one-file-per-key layout left it — an envelope file per key named
// "<sanitized key>.res", a simidx1 index of the access order, a stray
// temp file of an interrupted Put — and requires an empty, usable store
// with none of those files left: old bytes are deleted, never read.
func TestOneFilePerKeyLayoutIsDeletedAtOpen(t *testing.T) {
	dir := t.TempDir()
	var payload bytes.Buffer
	for i := range 6 {
		key := fmt.Sprintf("run:TL:%064x", i*7919)
		body := []byte(fmt.Sprintf(`{"cycles":%d}`, 1000+i))
		name := strings.ReplaceAll(key, ":", "-") + ".res"
		if err := os.WriteFile(filepath.Join(dir, name), EncodeEnvelope(key, body), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&payload, "%d %s\n", len(body), key)
	}
	sum := sha256.Sum256(payload.Bytes())
	index := fmt.Sprintf("simidx1 %s %d\n%s", hex.EncodeToString(sum[:]), 6, payload.Bytes())
	if err := os.WriteFile(filepath.Join(dir, indexName), []byte(index), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run-TL-0.res.4242.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir, 0)
	defer s.Close()
	if st := s.StatsSnapshot(); st.Entries != 0 || st.Corrupt != 0 || st.IndexLoads != 0 || st.IndexRebuilds != 0 {
		t.Fatalf("an old-layout directory opened as %+v, want an empty store", st)
	}
	if _, ok := s.Get(fmt.Sprintf("run:TL:%064x", 0)); ok {
		t.Fatal("a result of the old layout was served")
	}
	segs, other := dirFiles(t, dir)
	if len(segs) != 0 || !reflect.DeepEqual(other, []string{indexName}) {
		t.Fatalf("left behind: segments %v, other %v", segs, other)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, indexName)); err != nil || bytes.HasPrefix(raw, []byte("simidx1 ")) {
		t.Fatalf("index not replaced: %.20q, %v", raw, err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("the store is not usable: %q, %v", got, ok)
	}
}

// TestFootprintStaysWithinTwiceTheBudget writes forty times a small
// budget B through the store. After every Put, compaction has kept the
// segment bytes on disk at most twice the live records plus one
// segment; a live record is its payload, which the budget bounds, plus
// its framing (header and trailer lines, 90-odd bytes with these keys),
// so the footprint stays within 2·B + 2·framing + one segment.
func TestFootprintStaysWithinTwiceTheBudget(t *testing.T) {
	const budget, seg = 16 << 10, 4 << 10
	dir := t.TempDir()
	s := mustOpenSized(t, dir, budget, seg)
	written := 0
	for i := 0; written < 40*budget; i++ {
		body := bytes.Repeat([]byte{byte(i)}, 500+i%700)
		if err := s.Put(fmt.Sprintf("run:TL:%d", i%50), body); err != nil {
			t.Fatal(err)
		}
		written += len(body)
		s.mu.Lock()
		live, payload := s.live, s.entries.Cost()
		framing := live - payload
		s.mu.Unlock()
		if payload > budget || framing > int64(s.Len())*100 {
			t.Fatalf("after %d Puts: %d payload bytes, %d framing bytes in %d entries", i+1, payload, framing, s.Len())
		}
		checkTotals(t, s)
		if got := segBytes(t, dir); got > 2*live+seg {
			t.Fatalf("after %d Puts: %d segment bytes on disk, bound 2·%d + %d", i+1, got, live, seg)
		}
	}
	if st := s.StatsSnapshot(); st.Evictions == 0 || st.Bytes+st.IndexBytes > budget {
		t.Fatalf("stats %+v", st)
	}
}

// TestDirectoryHoldsSegmentsNotFiles: N Puts leave O(segments) files,
// not N.
func TestDirectoryHoldsSegmentsNotFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenSized(t, dir, 0, 64<<10)
	const n = 2000
	body := bytes.Repeat([]byte("r"), 300)
	for i := range n {
		if err := s.Put(fmt.Sprintf("run:TL:%05d", i), body); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, other := dirFiles(t, dir)
	// 2000 records of ≈400 bytes in 64 KiB segments: 13 of them.
	if len(segs) > 13 || !reflect.DeepEqual(other, []string{indexName}) {
		t.Fatalf("%d Puts left %d segments and %v", n, len(segs), other)
	}
	if s2 := mustOpen(t, dir, 0); s2.Len() != n {
		t.Fatalf("reopened with %d entries, want %d", s2.Len(), n)
	}
}

func TestClosedStoreMissesAndRefusesPuts(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	if err := s.Put("k:a", []byte("body")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k:a"); ok {
		t.Fatal("closed store served a Get")
	}
	if err := s.Put("k:b", []byte("body")); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Put after Close = %v", err)
	}
	if st := s.StatsSnapshot(); st.Corrupt != 0 {
		t.Fatalf("closing counted corruption: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestFailedAppendLeavesTheLogicalEnd(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if err := s.Put("k:a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	// Swap the active segment's descriptor for a read-only one, so the
	// next append fails the way a full disk fails it.
	g := s.active
	rw := g.f
	ro, err := os.Open(rw.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	end := g.size
	g.f = ro
	if err := s.Put("k:b", []byte("lost")); err == nil {
		t.Fatal("append through a read-only descriptor succeeded")
	}
	if g.size != end || s.Len() != 1 {
		t.Fatalf("failed Put moved the end to %d (want %d) or left %d entries", g.size, end, s.Len())
	}
	g.f = rw
	if err := s.Put("k:b", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if _, at := recordOf(t, s, "k:b"); at.off != end {
		t.Fatalf("next Put landed at %d, want the old end %d", at.off, end)
	}
	if got, ok := s.Get("k:b"); !ok || string(got) != "kept" {
		t.Fatalf("k:b = %q, %v", got, ok)
	}
}
