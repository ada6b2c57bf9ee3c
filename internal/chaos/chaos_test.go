package chaos

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// echoHandler answers 200 "ok" and is the victim behind the injector.
func echoHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
}

func get(t *testing.T, url string) (int, string, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(body), nil
}

func TestInjectorArmsForExactlyNRequests(t *testing.T) {
	in := &Injector{}
	ts := httptest.NewServer(in.Middleware(echoHandler()))
	t.Cleanup(ts.Close)

	// Transparent by default.
	if status, body, err := get(t, ts.URL); err != nil || status != 200 || body != "ok" {
		t.Fatalf("unarmed: %d %q %v", status, body, err)
	}

	in.Arm(Unavailable, 2)
	for i := 0; i < 2; i++ {
		status, body, err := get(t, ts.URL)
		if err != nil || status != http.StatusServiceUnavailable {
			t.Fatalf("armed request %d: %d %v", i, status, err)
		}
		if !strings.Contains(body, "injected") {
			t.Fatalf("injected 503 body %q", body)
		}
	}
	// Spent: back to transparent without any Clear.
	if status, _, err := get(t, ts.URL); err != nil || status != 200 {
		t.Fatalf("after exhaustion: %d %v", status, err)
	}
}

func TestInjectorPathScopingAndClear(t *testing.T) {
	in := &Injector{}
	ts := httptest.NewServer(in.Middleware(echoHandler()))
	t.Cleanup(ts.Close)

	// Scoped to /run: /healthz keeps answering — the wedged-but-alive
	// backend shape the breaker probes rely on.
	in.ArmPath(Kill, -1, "/run")
	if _, _, err := get(t, ts.URL+"/run"); err == nil {
		t.Fatal("killed path answered")
	}
	if status, _, err := get(t, ts.URL+"/healthz"); err != nil || status != 200 {
		t.Fatalf("scoped fault leaked onto /healthz: %d %v", status, err)
	}
	// Unlimited arming persists until Clear.
	if _, _, err := get(t, ts.URL+"/run"); err == nil {
		t.Fatal("n<0 fault expired on its own")
	}
	in.Clear()
	if status, _, err := get(t, ts.URL+"/run"); err != nil || status != 200 {
		t.Fatalf("after Clear: %d %v", status, err)
	}
}

func TestInjectorKillLooksLikeADeadProcess(t *testing.T) {
	in := &Injector{}
	ts := httptest.NewServer(in.Middleware(echoHandler()))
	t.Cleanup(ts.Close)
	in.Arm(Kill, 1)
	if _, _, err := get(t, ts.URL); err == nil {
		t.Fatal("killed connection produced a response")
	}
}

func TestInjectorDropRunsTheHandlerThenLooksDead(t *testing.T) {
	in := &Injector{}
	var served atomic.Int64
	ts := httptest.NewServer(in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte("ok"))
	})))
	t.Cleanup(ts.Close)
	in.Arm(Drop, 1)
	if _, _, err := get(t, ts.URL); err == nil {
		t.Fatal("dropped reply reached the client")
	}
	if served.Load() != 1 {
		t.Fatalf("handler ran %d times under Drop, want once: the work happens, the answer is lost", served.Load())
	}
}

func TestInjectorSlowDelaysThenServes(t *testing.T) {
	in := &Injector{}
	ts := httptest.NewServer(in.Middleware(echoHandler()))
	t.Cleanup(ts.Close)
	in.SetDelay(50 * time.Millisecond)
	in.Arm(Slow, 1)
	start := time.Now()
	status, body, err := get(t, ts.URL)
	if err != nil || status != 200 || body != "ok" {
		t.Fatalf("slow: %d %q %v", status, body, err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("served in %v, want >= the injected 50ms", elapsed)
	}
	// A delayed POST still reaches the handler with its body.
	echo := httptest.NewServer(in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(w, r.Body)
	})))
	t.Cleanup(echo.Close)
	in.Arm(Slow, 1)
	resp, err := http.Post(echo.URL, "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got, _ := io.ReadAll(resp.Body); string(got) != "payload" {
		t.Fatalf("slowed POST body arrived as %q", got)
	}
}

func TestInjectorCorruptManglesBody(t *testing.T) {
	in := &Injector{}
	ts := httptest.NewServer(in.Middleware(echoHandler()))
	t.Cleanup(ts.Close)
	in.Arm(Corrupt, 1)
	status, body, err := get(t, ts.URL)
	if err != nil || status != 200 {
		t.Fatalf("corrupt: %d %v", status, err)
	}
	if body == "ok" {
		t.Fatal("corrupting writer passed the body through intact")
	}
	// Deterministic damage: XOR 0x5a, so the mangling is invertible in
	// assertions.
	want := string([]byte{'o' ^ 0x5a, 'k' ^ 0x5a})
	if body != want {
		t.Fatalf("mangled body %q, want %q", body, want)
	}
}

func TestCorruptResultsDamagesOldestNamesFirst(t *testing.T) {
	// Two segments in the store's record format, the first holding two
	// records: damage walks them in log order, record by record.
	dir := t.TempDir()
	record := func(key string) []byte {
		env := store.EncodeEnvelope(key, []byte("body of "+key))
		return append(env, "0badc0de\n"...) // the trailer's length is all the walk needs
	}
	segs := map[string][][]byte{
		"0000000001.seg": {record("k:aa"), record("k:bb")},
		"0000000002.seg": {record("k:cc")},
	}
	for name, recs := range segs {
		if err := os.WriteFile(filepath.Join(dir, name), bytes.Join(recs, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	others := []string{"not-a-result.tmp", "k-zz.res", "index"}
	for _, n := range others {
		if err := os.WriteFile(filepath.Join(dir, n), record("k:zz"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stomped := func() []bool {
		var out []bool
		for _, name := range []string{"0000000001.seg", "0000000002.seg"} {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			for off, rec := 0, segs[name]; len(rec) > 0; off, rec = off+len(rec[0]), rec[1:] {
				out = append(out, strings.HasPrefix(string(raw[off:]), "CHAOSCHAOS"))
			}
		}
		return out
	}

	if damaged, err := CorruptResults(dir, 2); err != nil || damaged != 2 {
		t.Fatalf("damaged %d (err %v), want 2", damaged, err)
	}
	if got, want := stomped(), []bool{true, true, false}; !slices.Equal(got, want) {
		t.Fatalf("stomped %v, want %v (log-order damage)", got, want)
	}
	// A second drill walks the already-stomped records and reaches the
	// rest; asking for more than there are damages them all.
	if damaged, err := CorruptResults(dir, 5); err != nil || damaged != 3 {
		t.Fatalf("damaged %d (err %v), want all 3", damaged, err)
	}
	if got, want := stomped(), []bool{true, true, true}; !slices.Equal(got, want) {
		t.Fatalf("stomped %v, want %v", got, want)
	}
	// Files other than segments are never touched.
	for _, n := range others {
		raw, _ := os.ReadFile(filepath.Join(dir, n))
		if strings.HasPrefix(string(raw), "CHAOSCHAOS") {
			t.Fatalf("%s damaged", n)
		}
	}
}
