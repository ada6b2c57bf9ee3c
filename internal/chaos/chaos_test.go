package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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
	dir := t.TempDir()
	names := []string{"aa.res", "bb.res", "cc.res", "not-a-result.tmp"}
	for _, n := range names {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("simstore1 header then body"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damaged, err := CorruptResults(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if damaged != 2 {
		t.Fatalf("damaged %d, want 2", damaged)
	}
	for i, n := range []string{"aa.res", "bb.res", "cc.res"} {
		raw, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		stomped := strings.HasPrefix(string(raw), "CHAOSCHAOS")
		if want := i < 2; stomped != want {
			t.Fatalf("%s stomped=%v, want %v (sorted-order damage)", n, stomped, want)
		}
	}
	// Non-.res files are never touched.
	raw, _ := os.ReadFile(filepath.Join(dir, "not-a-result.tmp"))
	if strings.HasPrefix(string(raw), "CHAOSCHAOS") {
		t.Fatal(".tmp file damaged")
	}
}
