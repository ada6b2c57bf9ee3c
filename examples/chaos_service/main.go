// Chaos drill: drive a supervised 3-shard cluster through the fault
// menu — SIGKILL mid-sweep, a crash-looping worker, on-disk result
// corruption — and prove the serving layer's promises survive all of
// it: zero error rows under single-shard loss, byte-identical
// analyses, truthful summaries and healthz verdicts. The drill:
//
//  1. computes the fault-free reference: an in-process single server
//     runs a 64-variant RTL grid through /sweep/analyze; that JSON
//     document is the byte-exact truth every later analysis must
//     reproduce, faults or no faults;
//
//  2. spawns three real simd worker processes under the shard
//     supervisor behind an in-process router, streams the 64-variant
//     sweep cold, and SIGKILLs the busiest shard after its first
//     row: all 64 rows must still arrive with ZERO error rows — the
//     dead shard's variants served by the next-ranked live shard and
//     tagged with their failover path — and the terminal summary
//     must be truthful;
//
//  3. waits for the supervisor to revive the victim and requires
//     POST /sweep/analyze to return a document byte-identical to the
//     fault-free reference, incomplete=false — and the sweep MANIFEST
//     to have survived the SIGKILL atomically: GET /sweep/{id} parses
//     cleanly and reports the sweep complete (the checkpoint write is
//     tmp+rename, so a kill can lose a checkpoint but never tear
//     one), GET /sweep/{id}/resume replays the tail with zero error
//     rows, and the post-hoc POST /sweep/{id}/analyze is
//     byte-identical to the fault-free reference;
//
//  4. crash-loops a different shard (SIGKILL every revival) until
//     the supervisor exhausts its respawn budget: healthz must
//     report that shard dead and the cluster not-OK, yet a
//     dead-owned /run is answered by a survivor with X-Failover and
//     the analysis is STILL complete and byte-identical;
//
//  5. corrupts result envelopes in the first victim's store
//     directory and SIGKILLs it once more: the revived worker must
//     count and delete the damage (healthz store.corrupt_at_open),
//     and a final sweep — one shard permanently dead, one freshly
//     healed of corruption — still streams zero error rows,
//     byte-identical to round 2.
//
//     go run ./examples/chaos_service [-simd PATH]
//
// With no -simd the drill builds the binary itself (`go build`). CI
// runs this as the chaos smoke; it exits nonzero on any violation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/clustertest"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spec"
)

var (
	fail          = clustertest.Fail
	postAnalyze   = clustertest.PostAnalyze
	clusterHealth = clustertest.ClusterHealth
	sumCounter    = clustertest.SumCounter
)

// sweepRequest is the drill grid: 64 variants of an RTL workload heavy
// enough that the sweep gives the faults a real window to land in,
// light enough that the whole drill stays a smoke test.
func sweepRequest() service.SweepRequest {
	base := clustertest.Workload("chaos/base", 12_000)
	base.MaxCycles = 50_000_000
	return clustertest.Grid64(base, "chaos/grid", "rtl")
}

func analyzeRequest() service.AnalyzeRequest {
	return service.AnalyzeRequest{SweepRequest: sweepRequest(), Request: clustertest.Analysis(5)}
}

// waitShard polls the cluster healthz until cond accepts the shard's
// entry (30s budget).
func waitShard(front string, i int, what string, cond func(shard.ShardHealth) bool) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := clusterHealth(front)
		if err == nil && len(h.Shards) > i && cond(h.Shards[i]) {
			return
		}
		if time.Now().After(deadline) {
			fail("shard %d never reached %s: %+v (err %v)", i, what, h, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func main() {
	simd := clustertest.SimdFlag()
	flag.Parse()
	tmp, bin := clustertest.Workspace("chaossmoke", *simd)
	defer os.RemoveAll(tmp)

	// 1. The fault-free reference analysis, computed in-process.
	ref, err := service.New(service.Options{Workers: 4, StoreDir: filepath.Join(tmp, "ref")})
	if err != nil {
		fail("reference server: %v", err)
	}
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	defer ref.Close()
	refDoc, refBody := postAnalyze(refTS.URL, analyzeRequest())
	if refDoc.Incomplete || refDoc.Analyzed != 64 || refDoc.Best == nil {
		fail("fault-free reference implausible: %s", refBody)
	}
	fmt.Printf("fault-free reference: 64 variants analyzed, best %s=%g at %s\n",
		refDoc.Metric, refDoc.Best.Value, refDoc.Best.Name)

	// The cluster: three real worker processes under the supervisor,
	// behind an in-process router. A tight respawn budget with a huge
	// StableUptime makes the crash-loop drill deterministic: every
	// kill in this drill counts as part of one consecutive campaign.
	dir := filepath.Join(tmp, "cluster")
	sup, err := shard.SpawnWith(bin, 3, func(i int) []string {
		return []string{"-workers", "1", "-store", filepath.Join(dir, fmt.Sprintf("shard-%d", i))}
	}, shard.SpawnOptions{
		RespawnBase:     250 * time.Millisecond,
		RespawnMax:      time.Second,
		RespawnAttempts: 3,
		StableUptime:    time.Hour,
	})
	if err != nil {
		fail("spawning cluster: %v", err)
	}
	defer sup.Stop()
	rt, err := shard.New(shard.Options{
		Backends:         sup.URLs(),
		Supervisor:       sup,
		BreakerThreshold: 2,
		BreakerInterval:  200 * time.Millisecond,
	})
	if err != nil {
		fail("router: %v", err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Local routing table: owner and full rendezvous rank per variant.
	sweepReq := sweepRequest()
	variants := clustertest.Variants(sweepReq)
	if len(variants) != 64 {
		fail("grid expanded to %d variants, want 64 — adjust the axes", len(variants))
	}
	owners := map[string]int{}
	ranks := map[string][]int{}
	perShard := []int{0, 0, 0}
	for _, v := range variants {
		ranks[v.Hash] = shard.RankIDs(v.Hash, []int{0, 1, 2}) // the boot-time ID set
		owners[v.Hash] = ranks[v.Hash][0]
		perShard[owners[v.Hash]]++
	}
	if perShard[0] == 0 || perShard[1] == 0 || perShard[2] == 0 {
		fail("degenerate 3-way partition %v", perShard)
	}

	// 2. SIGKILL the busiest shard mid-sweep; failover must keep the
	// stream error-free.
	victim := 0
	for i, n := range perShard {
		if n > perShard[victim] {
			victim = i
		}
	}
	victimPid := sup.Procs()[victim].Pid
	fmt.Printf("cold 64-variant RTL sweep (split %v); killing shard %d (pid %d) after its first row\n",
		perShard, victim, victimPid)
	killed := false
	rows, summary, sweepHdr := clustertest.RunSweep(front.URL, sweepReq, func(r shard.Row) {
		if !killed && r.Shard == victim && r.Error == "" {
			syscall.Kill(victimPid, syscall.SIGKILL)
			killed = true
			fmt.Printf("  killed shard %d after row %s\n", victim, r.Name)
		}
	})
	if !killed {
		fail("victim shard produced no successful row to trigger on")
	}
	if len(rows) != 64 || summary.Errors != 0 {
		fail("kill sweep: %d rows, %d summary errors — want 64 rows, zero errors", len(rows), summary.Errors)
	}
	byHash := map[string][]byte{}
	failovers, stolen := 0, 0
	for _, r := range rows {
		if r.Error != "" {
			fail("error row %s under single-shard loss: %s", r.Name, r.Error)
		}
		byHash[r.Hash] = r.Result
		if r.Stolen != "" {
			// Work-stealing legitimately serves a row away from its
			// owner — but the tag must be consistent: owner->thief with
			// the thief the serving shard and the owner the rendezvous
			// owner.
			stolen++
			var o, th int
			if _, err := fmt.Sscanf(r.Stolen, "%d->%d", &o, &th); err != nil ||
				o == th || th != r.Shard || o != owners[r.Hash] {
				fail("row %s stolen tag %q inconsistent (served by %d, owner %d)",
					r.Name, r.Stolen, r.Shard, owners[r.Hash])
			}
			continue
		}
		if r.Failover == "" {
			if r.Shard != owners[r.Hash] {
				fail("row %s on shard %d without a failover tag, owner %d", r.Name, r.Shard, owners[r.Hash])
			}
			continue
		}
		failovers++
		// The failover target is not arbitrary: it is the next LIVE
		// shard in the variant's own rendezvous rank order.
		next := -1
		for _, idx := range ranks[r.Hash] {
			if idx != victim {
				next = idx
				break
			}
		}
		if owners[r.Hash] != victim || r.Shard != next {
			fail("failover row %s owner %d served by shard %d, want next-ranked live shard %d", r.Name, owners[r.Hash], r.Shard, next)
		}
		if want := fmt.Sprintf("%d->%d", victim, next); r.Failover != want {
			fail("row %s failover %q, want %q", r.Name, r.Failover, want)
		}
	}
	if failovers == 0 {
		fail("no row failed over — the kill never bit")
	}
	fmt.Printf("  64 rows, 0 errors, %d failover rows, %d stolen rows, truthful summary\n", failovers, stolen)

	// 3. After the supervisor revives the victim, the analysis must
	// reproduce the fault-free reference byte-for-byte.
	waitShard(front.URL, victim, "respawned with a closed breaker", func(sh shard.ShardHealth) bool {
		return sh.OK && sh.Proc != nil && sh.Proc.State == shard.ProcRunning &&
			sh.Proc.Pid != victimPid && sh.Breaker != "open"
	})
	doc, body := postAnalyze(front.URL, analyzeRequest())
	if doc.Incomplete || doc.Analyzed != 64 {
		fail("post-respawn analysis degraded: %s", body)
	}
	if !bytes.Equal(body, refBody) {
		fail("post-respawn analysis differs from the fault-free reference:\n%s\n%s", body, refBody)
	}
	fmt.Printf("victim respawned; analysis byte-identical to the fault-free reference\n")

	// 3b. The sweep manifest survived the SIGKILL atomically. The
	// checkpoint write is tmp+rename, so the kill mid-sweep can have
	// lost the victim's last checkpoint but can never have torn the
	// manifest: GET /sweep/{id} must parse cleanly and report the
	// sweep complete, a resume must replay the tail with zero error
	// rows, and the post-hoc stored analyze must reproduce the
	// fault-free reference byte for byte without re-simulating.
	sweepID := sweepHdr.Get(service.SweepIDHeader)
	if sweepID == "" {
		fail("round-2 sweep carried no %s header", service.SweepIDHeader)
	}
	status, _, stBody := clustertest.Get(front.URL + "/sweep/" + sweepID)
	if status != http.StatusOK {
		fail("manifest status %d after SIGKILL: %s", status, stBody)
	}
	var st service.SweepStatus
	if err := json.Unmarshal(stBody, &st); err != nil {
		fail("manifest TORN after SIGKILL — status body does not parse: %v\n%s", err, stBody)
	}
	if !st.Complete || st.Total != 64 || st.DoneCount != 64 || st.FailedCount != 0 {
		fail("manifest after SIGKILL: total %d done %d failed %d complete %v, want complete 64",
			st.Total, st.DoneCount, st.FailedCount, st.Complete)
	}
	resp, err := http.Get(front.URL + "/sweep/" + sweepID + "/resume?after=31")
	if err != nil {
		fail("resume: %v", err)
	}
	resumed := 0
	rsum, rdone, err := service.DecodeSweepStream(resp.Body, func(line []byte) error {
		var r shard.Row
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.Error != "" {
			fail("resume error row %s: %s", r.Name, r.Error)
		}
		if r.Index <= 31 {
			fail("resume replayed index %d <= 31", r.Index)
		}
		resumed++
		return nil
	})
	resp.Body.Close()
	if err != nil || !rdone || resumed != 32 || rsum.Errors != 0 {
		fail("resume after SIGKILL: %d rows done=%v errors=%d (err %v), want 32 clean rows", resumed, rdone, rsum.Errors, err)
	}
	status, _, storedBody := clustertest.Post(front.URL+"/sweep/"+sweepID+"/analyze", clustertest.Analysis(5))
	if status != http.StatusOK {
		fail("stored analyze status %d: %s", status, storedBody)
	}
	if !bytes.Equal(storedBody, refBody) {
		fail("stored analyze differs from the fault-free reference:\n%s\n%s", storedBody, refBody)
	}
	fmt.Printf("manifest survived the SIGKILL atomically: status complete, resume clean (32 rows), stored analyze byte-identical\n")

	// 4. Crash-loop a different shard until the supervisor gives up.
	crash := (victim + 1) % 3
	fmt.Printf("crash-looping shard %d (SIGKILL every revival, budget 3)\n", crash)
	crashDeadline := time.Now().Add(30 * time.Second)
	for {
		st := sup.Status()[crash]
		if st.State == shard.ProcDead {
			break
		}
		if st.State == shard.ProcRunning && st.Pid != 0 {
			syscall.Kill(st.Pid, syscall.SIGKILL)
		}
		if time.Now().After(crashDeadline) {
			fail("shard %d never exhausted its respawn budget: %+v", crash, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := sup.Status()[crash]; st.Respawns != 3 {
		fail("shard %d dead after %d respawns, want the full budget of 3", crash, st.Respawns)
	}
	// healthz tells the truth: the shard is dead, the cluster is
	// degraded — and the cluster still serves everything.
	waitShard(front.URL, crash, "reported dead", func(sh shard.ShardHealth) bool {
		return sh.Proc != nil && sh.Proc.State == shard.ProcDead
	})
	if h, err := clusterHealth(front.URL); err != nil || h.OK {
		fail("cluster healthz ok=%v (err %v) with shard %d dead", h.OK, err, crash)
	}
	var crashOwned *spec.Spec
	for _, v := range variants {
		if owners[v.Hash] == crash {
			sp := v.Spec
			crashOwned = &sp
			break
		}
	}
	status, runHdr, runBody := clustertest.Post(front.URL+"/run", map[string]any{"spec": crashOwned, "model": "rtl"})
	if status != http.StatusOK {
		fail("dead-owned /run: %d %s", status, runBody)
	}
	if fo := runHdr.Get("X-Failover"); !strings.HasPrefix(fo, fmt.Sprintf("%d->", crash)) {
		fail("dead-owned /run X-Failover %q, want a path out of shard %d", fo, crash)
	}
	doc, body = postAnalyze(front.URL, analyzeRequest())
	if doc.Incomplete || doc.Analyzed != 64 {
		fail("analysis with a permanently dead shard degraded: %s", body)
	}
	if !bytes.Equal(body, refBody) {
		fail("dead-shard analysis differs from the fault-free reference:\n%s\n%s", body, refBody)
	}
	fmt.Printf("shard %d dead after exhausting its budget; healthz truthful; /run fails over (X-Failover %s); analysis still byte-identical\n",
		crash, runHdr.Get("X-Failover"))

	// 5. Corrupt the first victim's store on disk, kill it once more,
	// and require the revived worker to confess the damage — then
	// serve the same bytes as ever.
	storeDir := filepath.Join(dir, fmt.Sprintf("shard-%d", victim))
	damaged, err := chaos.CorruptResults(storeDir, 4)
	if err != nil || damaged != 4 {
		fail("corrupting %s: damaged %d (err %v), want 4", storeDir, damaged, err)
	}
	pid := sup.Procs()[victim].Pid
	syscall.Kill(pid, syscall.SIGKILL)
	waitShard(front.URL, victim, "respawned after corruption", func(sh shard.ShardHealth) bool {
		return sh.OK && sh.Proc != nil && sh.Proc.State == shard.ProcRunning &&
			sh.Proc.Pid != pid && sh.Breaker != "open"
	})
	waitShard(front.URL, victim, "reporting corrupt_at_open", func(sh shard.ShardHealth) bool {
		return sh.Health != nil && sh.Health.Store != nil && sh.Health.Store.CorruptAtOpen == 4
	})
	fmt.Printf("shard %d revived over a corrupted store: healthz reports corrupt_at_open=4 (deleted at open)\n", victim)

	final, finalSummary, _ := clustertest.RunSweep[shard.Row](front.URL, sweepReq, nil)
	if len(final) != 64 || finalSummary.Errors != 0 {
		fail("final sweep: %d rows, %d errors", len(final), finalSummary.Errors)
	}
	for _, r := range final {
		if !bytes.Equal(r.Result, byHash[r.Hash]) {
			fail("final row %s differs from round 2 — corruption or failover changed the bytes", r.Name)
		}
		if r.Stolen != "" {
			var o, th int
			if _, err := fmt.Sscanf(r.Stolen, "%d->%d", &o, &th); err != nil ||
				o == th || th != r.Shard || o != owners[r.Hash] || th == crash {
				fail("final row %s stolen tag %q inconsistent (served by %d, owner %d, dead %d)",
					r.Name, r.Stolen, r.Shard, owners[r.Hash], crash)
			}
			continue
		}
		if owners[r.Hash] == crash {
			if r.Failover == "" || r.Shard == crash {
				fail("row %s owned by dead shard %d served without failover (shard %d)", r.Name, crash, r.Shard)
			}
		} else if r.Failover != "" || r.Shard != owners[r.Hash] {
			fail("row %s on shard %d (failover %q), owner %d alive", r.Name, r.Shard, r.Failover, owners[r.Hash])
		}
	}
	fmt.Printf("final sweep over the degraded cluster: 64 rows, 0 errors, byte-identical\n")

	// 6. The router's metrics must have recorded the whole campaign in
	// monotonic counters — the drill gates on trips and failovers, NOT
	// on the instantaneous breaker-state gauge, which races against the
	// supervisor's fast respawns. The dead shard's own series are
	// absent from the aggregated scrape (nothing answers), and
	// simd_shard_up says so explicitly.
	fams := clustertest.ScrapeMetrics(front.URL)
	if n := sumCounter(fams, "simd_router_failovers_total"); n == 0 {
		fail("simd_router_failovers_total is zero after the kill drills")
	}
	if n := sumCounter(fams, "simd_router_breaker_opens_total"); n == 0 {
		fail("simd_router_breaker_opens_total is zero — dead shards never tripped a breaker")
	}
	if n := sumCounter(fams, "simd_router_shard_restarts_total"); n < 4 {
		fail("restart counter %d, want >= 4 (1 kill + 3 crash-loop respawns)", n)
	}
	if v := obs.Find(fams, "simd_shard_up", "shard", strconv.Itoa(crash)); len(v) != 1 || v[0] != "0" {
		fail("dead shard %d not reported down by simd_shard_up: %v", crash, v)
	}
	if v := obs.Find(fams, "simd_shard_up", "shard", strconv.Itoa(victim)); len(v) != 1 || v[0] != "1" {
		fail("revived shard %d not scrapeable: %v", victim, v)
	}
	fmt.Printf("metrics truthful: failovers=%d breaker_opens=%d restarts=%d, dead shard down in simd_shard_up\n",
		sumCounter(fams, "simd_router_failovers_total"),
		sumCounter(fams, "simd_router_breaker_opens_total"),
		sumCounter(fams, "simd_router_shard_restarts_total"))

	fmt.Println("chaos smoke OK: kill mid-sweep, crash loop to give-up, and store corruption all absorbed — zero error rows, byte-identical analyses, truthful healthz and metrics")
}
