// Sharded service smoke drill: prove that `simd -shards 2` is
// indistinguishable from a single simd process — byte-identically —
// and that the cluster degrades and recovers the way the shard router
// promises. The drill:
//
//  1. starts a single-process simd and a 2-shard `simd -shards 2`
//     cluster, runs every library scenario through both, and requires
//     byte-identical bodies and X-Spec-Hash headers, with each
//     scenario's X-Shard matching the rendezvous owner computed
//     locally (placement is a pure function of the content hash);
//
//  2. runs the kill drill — TWICE, against a freshly salted cold grid
//     each round: stream an 8-variant RTL sweep through the cluster
//     and SIGKILL the busiest worker process mid-stream. Under
//     rendezvous failover the stream must still deliver all 8 rows
//     with ZERO error rows: the dead shard's remaining variants are
//     served by the survivor and tagged with their failover path, and
//     the stream ends with a truthful terminal summary — never a
//     hang, never a silent truncation. Each round then waits for the
//     supervisor to respawn the victim on its original port,
//     re-sweeps (every row owner-placed again, byte-identical to
//     what failover produced), and replays the grid all-hit from
//     BOTH shards' disk stores;
//
//  4. runs the same analysis grid through POST /sweep/analyze on the
//     single process and the 2-shard cluster and requires the two
//     JSON analysis documents to be byte-identical — aggregation is a
//     pure function of the (deterministic) result set, wherever and
//     in whatever order it was computed;
//
//  5. builds a 2-worker `-backends` cluster (no supervisor, so no
//     respawn), SIGKILLs one worker, and requires the analysis to
//     stay COMPLETE and byte-identical to the single-process
//     reference (the survivor covers the dead shard's variants, the
//     direct /run of a dead-owned spec carries X-Failover); then
//     SIGKILLs the second worker and requires the analysis to report
//     `incomplete` truthfully — zero analyzed, every variant in the
//     failed list naming "no live shard" — never a silently smaller
//     frontier.
//
//     go run ./examples/shard_service [-simd PATH]
//
// With no -simd the drill builds the binary itself (`go build`). CI
// runs this as the shard-mode smoke; it exits nonzero on any
// violation.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/clustertest"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spec"
)

var (
	fail          = clustertest.Fail
	postAnalyze   = clustertest.PostAnalyze
	clusterHealth = clustertest.ClusterHealth
	scrapeMetrics = clustertest.ScrapeMetrics
	sumCounter    = clustertest.SumCounter
)

// ids2 is the stable ID set of the 2-shard boot-time cluster: what
// rendezvous placement is computed against.
var ids2 = []int{0, 1}

// proc is one spawned simd process (single or supervised cluster).
type proc struct {
	cmd *exec.Cmd
	// url is the frontend base URL parsed from the serving banner.
	url string
	// shardPids maps shard index -> worker pid (cluster mode only).
	shardPids map[int]int
}

var (
	servingLine = regexp.MustCompile(`serving on (\S+)`)
	shardLine   = regexp.MustCompile(`shard (\d+) pid=(\d+) addr=(\S+)`)
)

// start launches simd with the given arguments and parses its startup
// banners: per-shard pid lines (cluster mode), then the serving line.
func start(bin string, wantShards int, args ...string) *proc {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fail("%v", err)
	}
	if err := cmd.Start(); err != nil {
		fail("starting %s: %v", bin, err)
	}
	p := &proc{cmd: cmd, shardPids: map[int]int{}}
	type parsed struct {
		url string
		err error
	}
	ch := make(chan parsed, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if m := shardLine.FindStringSubmatch(line); m != nil {
				idx, _ := strconv.Atoi(m[1])
				pid, _ := strconv.Atoi(m[2])
				p.shardPids[idx] = pid
				continue
			}
			if m := servingLine.FindStringSubmatch(line); m != nil {
				ch <- parsed{url: "http://" + m[1]}
				// Keep the pipe drained so the child never blocks.
				go func() {
					for sc.Scan() {
					}
				}()
				return
			}
		}
		ch <- parsed{err: fmt.Errorf("%s exited before announcing its address", bin)}
	}()
	select {
	case got := <-ch:
		if got.err != nil {
			fail("%v", got.err)
		}
		p.url = got.url
	case <-time.After(30 * time.Second):
		fail("%s: no serving banner within 30s", bin)
	}
	if len(p.shardPids) != wantShards {
		fail("%s announced %d shards, want %d", bin, len(p.shardPids), wantShards)
	}
	return p
}

// stop terminates the process tree gracefully (SIGTERM, then kill).
func (p *proc) stop() {
	if p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// postRun submits one /run request and returns status, headers, body.
func postRun(url string, req any) (int, http.Header, []byte) {
	return clustertest.Post(url+"/run", req)
}

// runSweep streams the grid through the cluster and invokes onRow per
// data row as it arrives (the kill hook).
func runSweep(url string, req service.SweepRequest, onRow func(r shard.Row)) ([]shard.Row, service.SweepSummary) {
	rows, summary, _ := clustertest.RunSweep(url, req, onRow)
	return rows, summary
}

// slowBase is the kill-drill workload: heavy enough per variant (RTL
// model) that a worker is reliably mid-simulation when the drill
// pulls the trigger.
func slowBase() spec.Spec {
	sp := clustertest.Workload("smoke/slow", 120_000)
	sp.MaxCycles = 50_000_000
	return sp
}

// findSeries returns the one matching sample value, or "".
func findSeries(fams []obs.Family, name string, labels ...string) string {
	vals := obs.Find(fams, name, labels...)
	if len(vals) != 1 {
		return ""
	}
	return vals[0]
}

func main() {
	simd := clustertest.SimdFlag()
	flag.Parse()
	tmp, bin := clustertest.Workspace("shardsmoke", *simd)
	defer os.RemoveAll(tmp)

	// 1. Single-process reference vs the 2-shard cluster, every
	// library scenario, byte-for-byte.
	single := start(bin, 0, "-addr", "127.0.0.1:0", "-workers", "2",
		"-store", filepath.Join(tmp, "single"))
	defer single.stop()
	// The router cache is disabled: this drill asserts BACKEND-tier
	// cache dispositions (X-Cache: hit from the worker's store), which
	// the router-side cache would otherwise answer first.
	cluster := start(bin, 2, "-addr", "127.0.0.1:0", "-shards", "2", "-workers", "1",
		"-router-cache-bytes", "0",
		"-store", filepath.Join(tmp, "cluster"))
	defer cluster.stop()

	h, err := clusterHealth(cluster.url)
	if err != nil || !h.OK || len(h.Shards) != 2 || h.Workers != 2 {
		fail("cluster health %+v (err %v)", h, err)
	}
	fmt.Printf("cluster up: 2 shards (pids %d, %d), %d workers total\n",
		cluster.shardPids[0], cluster.shardPids[1], h.Workers)

	_, scenarioByName := service.ScenarioLibrary()
	checked := 0
	for name, sp := range scenarioByName {
		req := map[string]any{"scenario": name, "model": "tl"}
		st1, h1, b1 := postRun(single.url, req)
		st2, h2, b2 := postRun(cluster.url, req)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			fail("scenario %s: statuses %d/%d: %s / %s", name, st1, st2, b1, b2)
		}
		if !bytes.Equal(b1, b2) {
			fail("scenario %s: sharded body differs from single-process:\n%s\n%s", name, b1, b2)
		}
		if h1.Get("X-Spec-Hash") != h2.Get("X-Spec-Hash") {
			fail("scenario %s: hash headers differ", name)
		}
		hash, _ := sp.Hash()
		if want := strconv.Itoa(shard.OwnerID(hash, ids2)); h2.Get("X-Shard") != want {
			fail("scenario %s placed on shard %s, rendezvous owner is %s", name, h2.Get("X-Shard"), want)
		}
		checked++
	}
	fmt.Printf("%d library scenarios byte-identical across single-process and 2-shard mode\n", checked)

	// Request tracing end to end: a rid sent to the router must come
	// back in the BACKEND's error body — the router forwards backend
	// bodies verbatim, so seeing it there proves the ID crossed the
	// proxy hop into the worker. An empty master list passes the
	// router's routing checks (it hashes fine) but fails the backend's
	// strict validation, so the 400 below is authored by the worker.
	invalid := spec.Spec{SpecVersion: spec.Version, Name: "smoke/invalid", Params: config.Default(2)}
	ridStatus, ridHdr, ridRespBody := clustertest.Do(http.MethodPost, cluster.url+"/run",
		map[string]any{"spec": invalid, "model": "tl"}, http.Header{obs.RequestIDHeader: {"shard-smoke-rid-1"}})
	if ridStatus != http.StatusBadRequest {
		fail("traced request status %d: %s", ridStatus, ridRespBody)
	}
	if got := ridHdr.Get(obs.RequestIDHeader); got != "shard-smoke-rid-1" {
		fail("router did not echo the request ID: %q", got)
	}
	var ridErr struct {
		RequestID string `json:"request_id"`
	}
	if json.Unmarshal(ridRespBody, &ridErr) != nil || ridErr.RequestID != "shard-smoke-rid-1" {
		fail("backend error body lost the request ID: %s", ridRespBody)
	}
	fmt.Println("request ID propagates router -> worker and back (echoed header + backend error body)")

	// Timing breakdown survives the proxy hop on a cold run.
	tb := fastBase()
	tb.Name = "smoke/timing"
	_, timingHdr, _ := postRun(cluster.url, map[string]any{"spec": tb, "model": "tl"})
	if tm := timingHdr.Get("X-Timing"); !strings.Contains(tm, "simulate=") {
		fail("X-Timing not forwarded through the router: %q", tm)
	}

	// 2. The kill drill, twice: the second round proves the respawned
	// worker is a first-class shard again — it serves, fails over and
	// revives exactly like the original process did.
	for round := 1; round <= 2; round++ {
		killDrill(cluster, round)
	}

	// 3. Cluster observability after the drills: one router scrape
	// carries the whole story — both shards scrapeable under their
	// labels, the failovers the kills forced, and the supervisor
	// respawns surfaced as restart counters (the counter-reset warning
	// for anyone summing worker series).
	fams := scrapeMetrics(cluster.url)
	for i := 0; i < 2; i++ {
		label := strconv.Itoa(i)
		if v := findSeries(fams, "simd_shard_up", "shard", label); v != "1" {
			fail("simd_shard_up{shard=%s} = %q after respawn", label, v)
		}
		if v := findSeries(fams, "simd_jobs_total", "shard", label); v == "" {
			fail("shard %s series missing from the aggregated scrape", label)
		}
	}
	if n := sumCounter(fams, "simd_router_failovers_total"); n == 0 {
		fail("kill drills produced no simd_router_failovers_total increments")
	}
	if n := sumCounter(fams, "simd_router_shard_restarts_total"); n < 2 {
		fail("restart counter %d after two kill drills, want >= 2", n)
	}
	h2, err := clusterHealth(cluster.url)
	if err != nil || h2.Restarts < 2 {
		fail("healthz restarts %d (err %v), want >= 2", h2.Restarts, err)
	}
	fmt.Printf("metrics: failovers=%d restarts=%d, both shards scrapeable under shard labels\n",
		sumCounter(fams, "simd_router_failovers_total"), sumCounter(fams, "simd_router_shard_restarts_total"))

	// 4. /sweep/analyze: the single process and the 2-shard cluster
	// must produce byte-identical analysis documents for the same grid
	// — the tentpole contract of router-side aggregation. A fast TL
	// grid keeps this step cheap; it is cold on both deployments, so
	// the equality also covers completion-order independence.
	analyzeReq := service.AnalyzeRequest{
		SweepRequest: clustertest.Grid8(fastBase(), "smoke/analyze", "tl"),
		Request:      clustertest.Analysis(3),
	}
	_, body1 := postAnalyze(single.url, analyzeReq)
	doc2, body2 := postAnalyze(cluster.url, analyzeReq)
	if !bytes.Equal(body1, body2) {
		fail("analysis documents differ between single-process and 2-shard:\n%s\n%s", body1, body2)
	}
	if doc2.Incomplete || doc2.Analyzed != 8 || doc2.Best == nil || doc2.Frontier == nil || len(doc2.Frontier.Points) == 0 {
		fail("healthy analysis implausible: %s", body2)
	}
	fmt.Printf("analysis byte-identical across deployments: best %s=%g at %s, %d frontier points\n",
		doc2.Metric, doc2.Best.Value, doc2.Best.Name, len(doc2.Frontier.Points))

	// 5. Failover honesty on a -backends cluster (externally managed
	// workers, no supervisor, no respawn). Losing ONE worker must not
	// degrade anything: the survivor covers the dead shard's variants
	// and the analysis stays complete and byte-identical to the
	// single-process reference. Losing BOTH workers must be reported
	// truthfully — never a silently smaller frontier.
	w1 := start(bin, 0, "-addr", "127.0.0.1:0", "-workers", "1")
	defer w1.stop()
	w2 := start(bin, 0, "-addr", "127.0.0.1:0", "-workers", "1")
	defer w2.stop()
	// Cache off here too: with it on, the analyze below would warm the
	// router's own cache and the all-dead analysis would be served
	// complete from it — this phase tests backend-tier honesty.
	router := start(bin, 0, "-addr", "127.0.0.1:0", "-router-cache-bytes", "0",
		"-backends", w1.url+","+w2.url)
	defer router.stop()

	// Verify the analysis grid actually spans both shards, and keep a
	// spec the doomed shard owns for the direct-/run failover probe.
	analyzeVariants := clustertest.Variants(analyzeReq.SweepRequest)
	deadOwned := 0
	var deadSpec *spec.Spec
	for _, v := range analyzeVariants {
		if shard.OwnerID(v.Hash, ids2) == 1 {
			deadOwned++
			if deadSpec == nil {
				sp := v.Spec
				deadSpec = &sp
			}
		}
	}
	if deadOwned == 0 || deadOwned == len(analyzeVariants) {
		fail("degenerate analyze partition: shard 1 owns %d of %d", deadOwned, len(analyzeVariants))
	}
	w2.cmd.Process.Kill()
	w2.cmd.Wait()

	// A dead-owned spec still runs — served by the survivor, with the
	// failover path announced in the response headers.
	st, hdr, runBody := postRun(router.url, map[string]any{"spec": deadSpec, "model": "tl"})
	if st != http.StatusOK {
		fail("dead-owned /run after single loss: %d %s", st, runBody)
	}
	if hdr.Get("X-Shard") != "0" || hdr.Get("X-Failover") != "1->0" {
		fail("dead-owned /run shard %q failover %q, want shard 0 via 1->0", hdr.Get("X-Shard"), hdr.Get("X-Failover"))
	}

	oneDoc, oneBody := postAnalyze(router.url, analyzeReq)
	if oneDoc.Incomplete || oneDoc.Analyzed != 8 || len(oneDoc.Failed) != 0 {
		fail("single-loss analysis degraded: %s", oneBody)
	}
	if !bytes.Equal(oneBody, body1) {
		fail("single-loss analysis differs from the single-process reference:\n%s\n%s", oneBody, body1)
	}
	fmt.Printf("single worker lost: /run fails over (X-Failover 1->0), analysis still complete and byte-identical\n")

	// Both workers down: nothing left to fail over to, and the
	// analysis must say exactly that.
	w1.cmd.Process.Kill()
	w1.cmd.Wait()

	deadDoc, deadBody := postAnalyze(router.url, analyzeReq)
	if !deadDoc.Incomplete {
		fail("all-dead analysis not marked incomplete: %s", deadBody)
	}
	if deadDoc.Variants != 8 || deadDoc.Analyzed != 0 || len(deadDoc.Failed) != 8 {
		fail("all-dead analysis variants/analyzed/failed %d/%d/%d, want 8/0/8: %s",
			deadDoc.Variants, deadDoc.Analyzed, len(deadDoc.Failed), deadBody)
	}
	for _, f := range deadDoc.Failed {
		if !strings.Contains(f.Error, "no live shard") {
			fail("all-dead failure %+v does not name the exhausted cluster", f)
		}
	}
	fmt.Printf("all workers lost: analysis truthful — incomplete=true, 0/%d analyzed, %d explicit failures\n",
		deadDoc.Variants, len(deadDoc.Failed))

	fmt.Println("smoke OK: 2-shard cluster byte-identical (rows AND analysis), double kill drill survived with zero error rows, respawn + replay + failover/incompleteness honesty verified")
}

// killDrill streams one cold 8-variant RTL sweep through the cluster
// and SIGKILLs the busiest shard after its first successful row. The
// failover contract under test: all 8 rows arrive with ZERO errors,
// dead-owned rows are served by the survivor and tagged with their
// failover path, and once the supervisor revives the victim the grid
// recomputes owner-placed — byte-identical to what failover produced
// — and replays all-hit from both shards' disk stores. The round
// number salts the workload so every drill starts cold.
func killDrill(cluster *proc, round int) {
	base := slowBase()
	// New hashes each round: same shape, one extra beat of work.
	base.Masters[0].Count += round

	gridReq := clustertest.Grid8(base, "smoke/grid", "rtl")
	owners := map[string]int{}
	perShard := []int{0, 0}
	for _, v := range clustertest.Variants(gridReq) {
		o := shard.OwnerID(v.Hash, ids2)
		owners[v.Hash] = o
		perShard[o]++
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		fail("round %d: degenerate partition %v; re-salt the grid", round, perShard)
	}
	victim := 0
	if perShard[1] > perShard[0] {
		victim = 1
	}
	survivor := 1 - victim

	// The victim's CURRENT pid comes from healthz, not the startup
	// banner: after round 1's respawn the banner pid is stale.
	h, err := clusterHealth(cluster.url)
	if err != nil || !h.OK {
		fail("round %d: cluster unhealthy before the drill: %+v (err %v)", round, h, err)
	}
	if h.Shards[victim].Proc == nil {
		fail("round %d: healthz carries no process status for shard %d", round, victim)
	}
	victimPid := h.Shards[victim].Proc.Pid
	priorRespawns := h.Shards[victim].Proc.Respawns
	fmt.Printf("kill drill %d: sweeping 8 RTL variants (shard split %v); killing shard %d (pid %d) after its first row\n",
		round, perShard, victim, victimPid)

	killed := false
	rows, summary := runSweep(cluster.url, gridReq, func(r shard.Row) {
		if !killed && r.Shard == victim && r.Error == "" {
			syscall.Kill(victimPid, syscall.SIGKILL)
			killed = true
			fmt.Printf("  killed shard %d after row %s\n", victim, r.Name)
		}
	})
	if !killed {
		fail("round %d: victim shard produced no successful row to trigger on", round)
	}
	if len(rows) != 8 {
		fail("round %d: kill sweep produced %d rows, want 8", round, len(rows))
	}
	byHash := map[string][]byte{}
	failovers, stolen := 0, 0
	for _, r := range rows {
		if r.Error != "" {
			fail("round %d: error row %s under single-shard loss (%s) — failover must cover a dead owner", round, r.Name, r.Error)
		}
		byHash[r.Hash] = r.Result
		if r.Stolen != "" {
			// Work-stealing: an idle shard drained a deep owner queue.
			// Legitimate off-owner service, but the tag must be honest.
			stolen++
			var o, th int
			if _, err := fmt.Sscanf(r.Stolen, "%d->%d", &o, &th); err != nil || o == th {
				fail("round %d: row %s carries malformed stolen tag %q", round, r.Name, r.Stolen)
			}
			if o != owners[r.Hash] || th != r.Shard {
				fail("round %d: stolen row %s tag %q disagrees with owner %d / serving shard %d", round, r.Name, r.Stolen, owners[r.Hash], r.Shard)
			}
			continue
		}
		if r.Failover == "" {
			// Owner-served: before the kill, or after the breaker let
			// the revived victim back in mid-sweep.
			if owners[r.Hash] != r.Shard {
				fail("round %d: row %s on shard %d without a failover tag, owner %d", round, r.Name, r.Shard, owners[r.Hash])
			}
			continue
		}
		failovers++
		if owners[r.Hash] != victim || r.Shard != survivor {
			fail("round %d: failover row %s owner %d served by shard %d (victim %d)", round, r.Name, owners[r.Hash], r.Shard, victim)
		}
		if want := fmt.Sprintf("%d->%d", victim, survivor); r.Failover != want {
			fail("round %d: row %s failover %q, want %q", round, r.Name, r.Failover, want)
		}
	}
	if failovers == 0 {
		fail("round %d: no row failed over — the drill never exercised shard death", round)
	}
	if summary.Errors != 0 {
		fail("round %d: terminal summary reports %d errors, stream carried none", round, summary.Errors)
	}
	fmt.Printf("  stream complete despite the kill: 8 rows, 0 errors, %d failover rows (%d->%d), %d stolen rows, truthful summary\n",
		failovers, victim, survivor, stolen)

	// The supervisor revives the victim on its original port; wait
	// until the router's breaker trusts it again so the re-sweep is
	// owner-placed throughout.
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := clusterHealth(cluster.url)
		if err == nil && h.OK && h.Shards[victim].Proc != nil &&
			h.Shards[victim].Proc.Pid != victimPid &&
			h.Shards[victim].Proc.Respawns > priorRespawns &&
			h.Shards[victim].Breaker != "open" {
			break
		}
		if time.Now().After(deadline) {
			fail("round %d: shard %d never respawned cleanly: %+v (err %v)", round, victim, h, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Printf("  shard %d respawned (respawns > %d), breaker closed\n", victim, priorRespawns)

	// Re-sweep: every row owner-placed again. Dead-owned rows that
	// failed over were never written through to the victim, so the
	// revived victim recomputes them — and must land on exactly the
	// bytes the survivor produced under failover.
	recomputed, summary2 := runSweep(cluster.url, gridReq, nil)
	if len(recomputed) != 8 || summary2.Errors != 0 {
		fail("round %d: post-respawn sweep: %d rows, %d errors", round, len(recomputed), summary2.Errors)
	}
	for _, r := range recomputed {
		if r.Stolen != "" {
			// The revived victim recomputes cold: its queue can run deep
			// enough for the survivor to steal a genuine miss. Valid —
			// the write-back still lands the bytes on the owner.
			var o, th int
			if _, err := fmt.Sscanf(r.Stolen, "%d->%d", &o, &th); err != nil || o == th || o != owners[r.Hash] || th != r.Shard {
				fail("round %d: post-respawn stolen row %s tag %q disagrees with owner %d / shard %d", round, r.Name, r.Stolen, owners[r.Hash], r.Shard)
			}
		} else if r.Failover != "" || r.Shard != owners[r.Hash] {
			fail("round %d: post-respawn row %s on shard %d (failover %q), owner %d", round, r.Name, r.Shard, r.Failover, owners[r.Hash])
		}
		if !bytes.Equal(r.Result, byHash[r.Hash]) {
			fail("round %d: row %s recomputed after respawn differs from its failover result", round, r.Name)
		}
	}

	// Replay: the whole grid is now a disk hit on BOTH shards.
	replayed, summary3 := runSweep(cluster.url, gridReq, nil)
	if len(replayed) != 8 || summary3.Errors != 0 {
		fail("round %d: replay sweep: %d rows, %d errors", round, len(replayed), summary3.Errors)
	}
	hitsByShard := []int{0, 0}
	for _, r := range replayed {
		if r.Cache != "hit" {
			fail("round %d: replay row %s disposition %q, want hit", round, r.Name, r.Cache)
		}
		if !bytes.Equal(r.Result, byHash[r.Hash]) {
			fail("round %d: replay row %s differs from its recomputation", round, r.Name)
		}
		hitsByShard[r.Shard]++
	}
	if hitsByShard[0] == 0 || hitsByShard[1] == 0 {
		fail("round %d: replay hits came from one shard only: %v", round, hitsByShard)
	}
	fmt.Printf("  full grid replays all-hit from both stores (%d + %d rows)\n", hitsByShard[0], hitsByShard[1])
}

// fastBase is the analysis-drill workload: the same shape as slowBase
// but light enough that an 8-variant TL grid is near-instant.
func fastBase() spec.Spec { return clustertest.Workload("smoke/fast", 300) }
