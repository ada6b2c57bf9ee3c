package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestIndexRoundTripPreservesEntriesAndOrder(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, 0)
	for i := 0; i < 5; i++ {
		if err := s1.Put(fmt.Sprintf("run:TL:%02d", i), []byte(fmt.Sprintf("body-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Scramble recency away from write order: 01 becomes hottest.
	if _, ok := s1.Get("run:TL:01"); !ok {
		t.Fatal("get failed")
	}
	wantOrder := s1.Enumerate("")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	st := s2.StatsSnapshot()
	if st.IndexLoads != 1 || st.IndexRebuilds != 0 {
		t.Fatalf("reopen did not use the index: %+v", st)
	}
	if st.Entries != 5 {
		t.Fatalf("entries %d, want 5", st.Entries)
	}
	// The access order must survive via the index — not the log order,
	// which the Get above scrambled.
	if got := s2.Enumerate(""); !reflect.DeepEqual(got, wantOrder) {
		t.Fatalf("order after reopen %v, want %v", got, wantOrder)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("run:TL:%02d", i)
		if got, ok := s2.Get(key); !ok || string(got) != fmt.Sprintf("body-%d", i) {
			t.Fatalf("%s = %q, %v", key, got, ok)
		}
	}
}

func TestOpenViaIndexIsOOneFileReads(t *testing.T) {
	// IndexRebuilds counts every fall-back to the segment rescan — the
	// only path that reads records at Open. Zero rebuilds on a
	// populated store is the guarantee that Open reads one file, the
	// index, whatever the entry count.
	dir := t.TempDir()
	s1 := mustOpen(t, dir, 0)
	const n = 500
	for i := 0; i < n; i++ {
		if err := s1.Put(fmt.Sprintf("run:TL:%04d", i), bytes.Repeat([]byte("b"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 0)
	st := s2.StatsSnapshot()
	if st.IndexLoads != 1 || st.IndexRebuilds != 0 || st.Entries != n {
		t.Fatalf("indexed open stats %+v, want IndexLoads=1 IndexRebuilds=0 Entries=%d", st, n)
	}
}

func TestCorruptIndexFallsBackToRescan(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, 0)
	for i := 0; i < 3; i++ {
		if err := s1.Put(fmt.Sprintf("k:%d", i), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the index: the checksum must reject it and the
	// store must degrade to a full rescan — loudly, not a crash.
	path := filepath.Join(dir, indexName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	st := s2.StatsSnapshot()
	if st.IndexRebuilds != 1 || st.IndexLoads != 0 {
		t.Fatalf("corrupt index stats %+v, want one rebuild", st)
	}
	if st.Entries != 3 || st.Corrupt != 0 {
		t.Fatalf("rescan lost entries: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, ok := s2.Get(fmt.Sprintf("k:%d", i)); !ok {
			t.Fatalf("k:%d lost after index corruption", i)
		}
	}
	// Open rewrote a good index; the next reopen loads it.
	s3 := mustOpen(t, dir, 0)
	if st := s3.StatsSnapshot(); st.IndexLoads != 1 || st.IndexRebuilds != 0 {
		t.Fatalf("index not repaired at open: %+v", st)
	}
}

func TestStaleIndexDetectedByNameSet(t *testing.T) {
	// A segment deleted, added or grown behind the store's back makes
	// the index's segment names or lengths disagree with the directory
	// — that must trigger a rescan, not serve phantom entries. Tiny
	// segments give every record a segment of its own.
	for _, c := range []struct {
		name string
		edit func(t *testing.T, dir string)
		want int
	}{
		{"segment deleted", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, segName(2))); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"segment added", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, segName(9)), encodeRecord("k:9", []byte("payload")), 0o644); err != nil {
				t.Fatal(err)
			}
		}, 4},
		{"segment grown", func(t *testing.T, dir string) {
			f, err := os.OpenFile(filepath.Join(dir, segName(3)), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(encodeRecord("k:1", []byte("newer"))); err != nil {
				t.Fatal(err)
			}
		}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := mustOpenSized(t, dir, 0, 1)
			for i := 0; i < 3; i++ {
				if err := s1.Put(fmt.Sprintf("k:%d", i), []byte("payload")); err != nil {
					t.Fatal(err)
				}
			}
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			c.edit(t, dir)
			s2 := mustOpen(t, dir, 0)
			st := s2.StatsSnapshot()
			if st.IndexRebuilds != 1 || st.Entries != c.want {
				t.Fatalf("stale index stats %+v, want a rebuild with %d entries", st, c.want)
			}
			got, ok := s2.Get("k:1")
			switch c.name {
			case "segment deleted":
				if ok {
					t.Fatal("phantom entry served from stale index")
				}
			case "segment grown":
				if !ok || string(got) != "newer" {
					t.Fatalf("k:1 = %q, %v; want the newer record", got, ok)
				}
			}
		})
	}
}

func TestIndexBudgetedButNeverEvicted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 300)
	body := bytes.Repeat([]byte("e"), 90)
	// Enough writes to trip many GC passes.
	for i := 0; i < 128; i++ {
		if err := s.Put(fmt.Sprintf("k:%03d", i), body); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, indexName)); err != nil {
		t.Fatalf("index file evicted or never written: %v", err)
	}
	s2 := mustOpen(t, dir, 300)
	st := s2.StatsSnapshot()
	if st.IndexLoads != 1 {
		t.Fatalf("index unusable after GC churn: %+v", st)
	}
	if st.IndexBytes <= 0 {
		t.Fatalf("IndexBytes not accounted: %+v", st)
	}
	if got := st.Bytes + st.IndexBytes; got > 300 {
		t.Fatalf("budget ignores index file: payload %d + index %d = %d > 300", st.Bytes, st.IndexBytes, got)
	}
}

func TestEnumerateFiltersByPrefixInRecencyOrder(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	for _, k := range []string{"run:TL:aa", "run:RTL:bb", "sweep:cc", "run:TL:dd"} {
		if err := s.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Enumerate("run:TL:"); !reflect.DeepEqual(got, []string{"run:TL:dd", "run:TL:aa"}) {
		t.Fatalf("Enumerate(run:TL:) = %v", got)
	}
	if got := s.Enumerate(""); len(got) != 4 {
		t.Fatalf("Enumerate(\"\") = %v", got)
	}
	if got := s.Enumerate("nope:"); len(got) != 0 {
		t.Fatalf("Enumerate(nope:) = %v", got)
	}
}

func TestEncodeDecodeEnvelopeRoundTrip(t *testing.T) {
	raw := EncodeEnvelope("run:TL:abc", []byte("the-body"))
	key, body, err := DecodeEnvelope(raw)
	if err != nil || key != "run:TL:abc" || string(body) != "the-body" {
		t.Fatalf("round trip = %q, %q, %v", key, body, err)
	}
	// A flipped body bit must fail the checksum.
	raw[len(raw)-1] ^= 0x01
	if _, _, err := DecodeEnvelope(raw); err == nil {
		t.Fatal("corrupt envelope decoded")
	}
}

// benchStore populates dir with n small envelopes and a fresh index.
func benchStore(b *testing.B, dir string, n int) {
	b.Helper()
	s, err := Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	body := bytes.Repeat([]byte("p"), 64)
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("run:TL:%05d", i), body); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOpenIndexed10k times the index startup path on a
// 10k-envelope store and asserts no per-record work happened: a
// single rescan (the only path that reads records at Open)
// would show up in IndexRebuilds.
func BenchmarkOpenIndexed10k(b *testing.B) {
	dir := b.TempDir()
	benchStore(b, dir, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		st := s.StatsSnapshot()
		if st.IndexLoads != 1 || st.IndexRebuilds != 0 || st.Entries != 10_000 {
			b.Fatalf("open fell off the index fast path: %+v", st)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkOpenRescan10k is the comparison point: the same store with
// its index deleted before every Open, forcing the O(bytes) rescan.
func BenchmarkOpenRescan10k(b *testing.B) {
	dir := b.TempDir()
	benchStore(b, dir, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		os.Remove(filepath.Join(dir, indexName))
		b.StartTimer()
		s, err := Open(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		if st := s.StatsSnapshot(); st.IndexRebuilds != 1 || st.Entries != 10_000 {
			b.Fatalf("expected a rescan: %+v", st)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}
