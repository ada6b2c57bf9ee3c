// Supervisor tests: the respawn loop against real child processes.
// The children are THIS test binary re-exec'd (TestMain dispatches on
// an env var) — a store-backed fake worker that speaks just enough
// HTTP to prove replay, and a crash-looping worker that proves the
// give-up path. No simd build step, no network beyond loopback.
package shard

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

func TestMain(m *testing.M) {
	switch os.Getenv("SHARD_TEST_WORKER") {
	case "store":
		fakeStoreWorker()
		return
	case "crash":
		// Announce readiness like a real worker, then die — the
		// supervisor must see the banner (spawn succeeds) and then a
		// corpse, every single time.
		fmt.Println("fake: serving on 127.0.0.1:1 (crash worker)")
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// fakeStoreWorker is a minimal worker: it opens the real disk store at
// -store and serves GET/POST /kv plus /dir, printing the same
// readiness banner simd does. Killing and respawning it exercises the
// exact store-reopen path a revived shard takes.
func fakeStoreWorker() {
	fs := flag.NewFlagSet("fake-worker", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "")
	dir := fs.String("store", "", "")
	fs.Parse(os.Args[1:])
	st, err := store.Open(*dir, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fake worker: %v\n", err)
		os.Exit(1)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/kv", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		switch r.Method {
		case http.MethodPost:
			body, err := io.ReadAll(r.Body)
			if err == nil {
				err = st.Put(key, body)
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			body, ok := st.Get(key)
			if !ok {
				http.NotFound(w, r)
				return
			}
			w.Write(body)
		}
	})
	mux.HandleFunc("/dir", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, st.Dir())
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fake worker: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("fake: serving on %s (store worker)\n", ln.Addr())
	http.Serve(ln, mux)
}

// waitStatus polls the supervisor until cond accepts shard i's status.
func waitStatus(t *testing.T, sup *Supervisor, i int, what string, cond func(ProcStatus) bool) ProcStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := sup.Status()[i]
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d never reached %s: %+v", i, what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	// A killed-and-respawning worker makes transport errors normal;
	// report them as status 0 and let the caller poll.
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, body
}

func TestSupervisorRespawnReopensStoreAcrossTwoKills(t *testing.T) {
	// Satellite: SIGKILL the same shard TWICE in a row. Each revival
	// must come back on the same port, reopen exactly its own
	// DIR/shard-i store directory, and replay the results written
	// before the first kill byte-identically — the property that makes
	// failover's no-write-through policy safe.
	t.Setenv("SHARD_TEST_WORKER", "store")
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sup, err := SpawnWith(bin, 2, func(i int) []string {
		return []string{"-store", filepath.Join(dir, fmt.Sprintf("shard-%d", i))}
	}, SpawnOptions{
		Log:         io.Discard,
		RespawnBase: 10 * time.Millisecond,
		RespawnMax:  50 * time.Millisecond,
		// Every kill here is deliberate, not a crash loop: a tiny
		// StableUptime keeps the two kills from pooling into one
		// consecutive-failure budget.
		StableUptime: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Stop)

	base := "http://" + sup.Procs()[0].Addr
	value := []byte(`{"cycles":424242,"survives":"respawn"}`)
	key, err := service.ResultKey("tl", strings.Repeat("de", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/kv?key="+key, "application/json", strings.NewReader(string(value)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put: %d", resp.StatusCode)
	}

	pid := sup.Procs()[0].Pid
	for kill := 1; kill <= 2; kill++ {
		if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		st := waitStatus(t, sup, 0, "respawned", func(st ProcStatus) bool {
			return st.State == ProcRunning && st.Pid != 0 && st.Pid != pid
		})
		if st.Respawns != kill {
			t.Fatalf("kill %d: respawns = %d", kill, st.Respawns)
		}
		// Same port: the router's backend list still points here.
		if got := sup.Procs()[0].Addr; "http://"+got != base {
			t.Fatalf("kill %d: respawned on %s, want %s", kill, got, base)
		}
		// The revived process must be serving ITS directory and replay
		// the pre-kill result byte-for-byte. Poll: ProcRunning means the
		// banner was seen, so the listener is up, but give the first
		// request a moment anyway.
		deadline := time.Now().Add(10 * time.Second)
		for {
			status, body := httpGet(t, base+"/kv?key="+key)
			if status == http.StatusOK {
				if string(body) != string(value) {
					t.Fatalf("kill %d: replayed %q, want %q", kill, body, value)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("kill %d: respawned worker never served (last status %d)", kill, status)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if _, wd := httpGet(t, base+"/dir"); !strings.HasSuffix(string(wd), "shard-0") {
			t.Fatalf("kill %d: worker serves store %q, want .../shard-0", kill, wd)
		}
		pid = st.Pid
	}

	// The untouched shard 1 never respawned.
	if st := sup.Status()[1]; st.State != ProcRunning || st.Respawns != 0 {
		t.Fatalf("innocent shard 1: %+v", st)
	}
}

func TestSupervisorGivesUpOnCrashLoopAndHealthzShowsDead(t *testing.T) {
	// A worker that dies instantly on every start must NOT be respawned
	// forever: after RespawnAttempts consecutive failures the
	// supervisor marks the shard dead, and the router's aggregated
	// healthz carries that verdict.
	t.Setenv("SHARD_TEST_WORKER", "crash")
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := SpawnWith(bin, 1, func(int) []string { return nil }, SpawnOptions{
		Log:             io.Discard,
		RespawnBase:     5 * time.Millisecond,
		RespawnMax:      20 * time.Millisecond,
		RespawnAttempts: 3,
		// Huge StableUptime: every death is part of the same loop.
		StableUptime: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Stop)

	st := waitStatus(t, sup, 0, "dead", func(st ProcStatus) bool { return st.State == ProcDead })
	if st.Respawns != 3 {
		t.Fatalf("dead after %d respawns, want the full budget of 3", st.Respawns)
	}
	// Dead is terminal: no zombie revival later.
	time.Sleep(100 * time.Millisecond)
	if st := sup.Status()[0]; st.State != ProcDead {
		t.Fatalf("shard rose from the dead: %+v", st)
	}

	// The router over this supervisor reports the process verdict in
	// its aggregated healthz — the operator-facing difference between
	// "briefly down" and "given up on".
	rt, err := New(Options{Backends: sup.URLs(), Supervisor: sup})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	health := rt.FetchClusterHealth(ctx)
	if health.OK {
		t.Fatal("cluster healthz ok=true with its only shard dead")
	}
	sh := health.Shards[0]
	if sh.Proc == nil || sh.Proc.State != ProcDead || sh.Proc.Respawns != 3 {
		t.Fatalf("healthz proc = %+v, want dead after 3 respawns", sh.Proc)
	}
}
