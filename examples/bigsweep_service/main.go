// Big-sweep drill: a 4-shard cluster completes a 10,000-variant RTL
// sweep through the checkpointed-sweep protocol while the drill
// throws the two faults the protocol exists for — a client that
// disconnects mid-stream and a worker SIGKILLed mid-sweep — and
// proves the promises hold:
//
//  1. an in-process single server computes the fault-free reference:
//     POST /sweep/analyze over the full grid, the byte-exact document
//     every later analysis must reproduce;
//
//  2. the cluster (4 real simd workers under the supervisor, one
//     deliberately slow with -workers 1 so work-stealing must kick
//     in) streams the same grid via POST /sweep. The client SIGKILLs
//     one shard after 1,000 rows, then hangs up after ~30% of the
//     stream, noting the X-Sweep-ID and its contiguous high-water
//     mark P;
//
//  3. GET /sweep/{id}/resume?after=P replays the rest: the union of
//     the two streams must be EXACTLY the grid — every index once,
//     no duplicates, no gaps, zero error rows — with overlapping
//     rows byte-identical;
//
//  4. at least one row was work-stolen (tagged owner->thief), and
//     stolen envelopes landed in the OWNER's store byte-identically
//     — a direct /run against the owner answers from cache with the
//     streamed bytes;
//
//  5. GET /sweep/{id} reports the sweep complete, and the post-hoc
//     POST /sweep/{id}/analyze — zero re-simulation — answers
//     byte-identical to the fault-free reference document.
//
//     go run ./examples/bigsweep_service [-simd PATH]
//
// With no -simd the drill builds the binary itself (`go build`). CI
// runs this as the big-sweep smoke; it exits nonzero on any violation.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/agg"
	"repro/internal/clustertest"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sweep"
)

const (
	totalVariants = 10_000
	killAfterRows = 1_000
	hangUpAfter   = 3_000
)

var fail = clustertest.Fail

// sweepRequest is the 25 x 20 x 20 = 10,000-variant product; every
// value produces a distinct workload, so dedup collapses nothing and
// the variant count IS the Cartesian product.
func sweepRequest() service.SweepRequest {
	base := clustertest.TinyWorkload("bigsweep/base")
	return service.SweepRequest{Base: &base, Name: "bigsweep/grid", Model: "rtl", Axes: []service.SweepAxis{
		{Param: sweep.ParamUrgencyThreshold, Values: clustertest.Ints(25, 0)},
		{Param: sweep.ParamCount, Values: clustertest.Ints(20, 1)},
		{Param: sweep.ParamWriteBufferDepth, Values: clustertest.Ints(20, 0)},
	}}
}

// streamLine is one NDJSON line of a router sweep stream: a data row
// or (done set) the terminal summary.
type streamLine struct {
	shard.Row
	Done   bool `json:"done"`
	Rows   int  `json:"rows"`
	Errors int  `json:"errors"`
}

func main() {
	simd := clustertest.SimdFlag()
	flag.Parse()
	tmp, bin := clustertest.Workspace("bigsweep", *simd)
	defer os.RemoveAll(tmp)

	// 1. Fault-free reference, in-process.
	ref, err := service.New(service.Options{Workers: 8, StoreDir: filepath.Join(tmp, "ref")})
	if err != nil {
		fail("reference server: %v", err)
	}
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	defer ref.Close()
	start := time.Now()
	refStatus, refHdr, refBody := clustertest.Post(refTS.URL+"/sweep/analyze",
		service.AnalyzeRequest{SweepRequest: sweepRequest(), Request: clustertest.Analysis(5)})
	if refStatus != http.StatusOK {
		fail("reference analyze status %d: %s", refStatus, refBody)
	}
	refID := refHdr.Get(service.SweepIDHeader)
	var refDoc agg.Analysis
	if err := json.Unmarshal(refBody, &refDoc); err != nil {
		fail("reference analyze body: %v", err)
	}
	if refDoc.Incomplete || refDoc.Analyzed != totalVariants || refDoc.Best == nil || refID == "" {
		fail("reference implausible (analyzed %d, incomplete %v, id %q)", refDoc.Analyzed, refDoc.Incomplete, refID)
	}
	fmt.Printf("fault-free reference: %d variants analyzed in %v, sweep id %s\n",
		refDoc.Analyzed, time.Since(start).Round(time.Millisecond), refID[:12])

	// The cluster: 4 real workers, shard 0 crippled to one worker so
	// its queue backs up and the others must steal from it.
	dir := filepath.Join(tmp, "cluster")
	sup, err := shard.SpawnWith(bin, 4, func(i int) []string {
		workers := "3"
		if i == 0 {
			workers = "1"
		}
		return []string{"-workers", workers, "-store", filepath.Join(dir, fmt.Sprintf("shard-%d", i))}
	}, shard.SpawnOptions{})
	if err != nil {
		fail("spawning cluster: %v", err)
	}
	defer sup.Stop()
	rt, err := shard.New(shard.Options{Backends: sup.URLs(), Supervisor: sup})
	if err != nil {
		fail("router: %v", err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Local routing table: variant spec and owner by grid index.
	variants := clustertest.Variants(sweepRequest())
	if len(variants) != totalVariants {
		fail("grid expanded to %d variants, want %d — adjust the axes", len(variants), totalVariants)
	}
	byIndex := make(map[int]sweep.Variant, len(variants))
	perShard := make([]int, 4)
	for _, v := range variants {
		byIndex[v.Index] = v
		perShard[shard.OwnerID(v.Hash, []int{0, 1, 2, 3})]++ // the boot-time ID set
	}
	// The SIGKILL victim: the busiest shard that is NOT the slow one
	// (stolen write-backs to shard 0 must survive to be checked).
	victim := 1
	for i := 2; i < 4; i++ {
		if perShard[i] > perShard[victim] {
			victim = i
		}
	}

	// 2. Stream the grid; SIGKILL the victim after 1,000 rows; hang up
	// after 3,000.
	start = time.Now()
	resp, err := http.Post(front.URL+"/sweep", "application/json", bytes.NewReader(clustertest.Marshal(sweepRequest())))
	if err != nil {
		fail("sweep: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		fail("sweep status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get(service.SweepIDHeader)
	if id != refID {
		fail("cluster sweep id %q != reference id %q — tiers disagree on sweep identity", id, refID)
	}
	if v := resp.Header.Get("X-Sweep-Variants"); v != fmt.Sprint(totalVariants) {
		fail("X-Sweep-Variants %q, want %d", v, totalVariants)
	}

	victimPid := sup.Procs()[victim].Pid
	firstRows := map[int]shard.Row{}
	killed := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			fail("sweep stream line: %v", err)
		}
		if line.Done {
			fail("stream completed after %d rows — the drill hung up too late to matter", len(firstRows))
		}
		if line.Error != "" {
			fail("error row %d during the first stream: %s", line.Index, line.Error)
		}
		if _, dup := firstRows[line.Index]; dup {
			fail("index %d streamed twice in one stream", line.Index)
		}
		firstRows[line.Index] = line.Row
		if !killed && len(firstRows) >= killAfterRows {
			syscall.Kill(victimPid, syscall.SIGKILL)
			killed = true
			fmt.Printf("killed shard %d (pid %d, owns %d variants) after %d rows\n",
				victim, victimPid, perShard[victim], len(firstRows))
		}
		if len(firstRows) >= hangUpAfter {
			break
		}
	}
	if !killed || len(firstRows) < hangUpAfter {
		fail("stream ended early: %d rows (killed=%v)", len(firstRows), killed)
	}
	resp.Body.Close() // the client disconnect

	// P: the contiguous high-water mark a real client would resume from.
	p := -1
	for firstRows[p+1].Hash != "" || firstRows[p+1].Error != "" {
		p++
	}
	if p < 0 {
		fail("no contiguous prefix in %d rows", len(firstRows))
	}
	fmt.Printf("hung up after %d rows (%v); contiguous prefix P=%d\n",
		len(firstRows), time.Since(start).Round(time.Millisecond), p)

	// The router's abort-path checkpoint races our next request; wait
	// for the manifest to become visible.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if status, _, _ := clustertest.Get(front.URL + "/sweep/" + id); status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			fail("manifest for %s never became visible after the disconnect", id)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// 3. Resume past P and drain to the terminal summary.
	start = time.Now()
	resp, err = http.Get(fmt.Sprintf("%s/sweep/%s/resume?after=%d", front.URL, id, p))
	if err != nil {
		fail("resume: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		fail("resume status %d: %s", resp.StatusCode, body)
	}
	resumeRows := map[int]shard.Row{}
	var summary service.SweepSummary
	summary, done, err := service.DecodeSweepStream(resp.Body, func(lineBytes []byte) error {
		var row shard.Row
		if err := json.Unmarshal(lineBytes, &row); err != nil {
			return err
		}
		if row.Error != "" {
			fail("error row %d during resume: %s", row.Index, row.Error)
		}
		if row.Index <= p {
			fail("resume replayed index %d <= P=%d", row.Index, p)
		}
		if _, dup := resumeRows[row.Index]; dup {
			fail("index %d streamed twice in the resume", row.Index)
		}
		resumeRows[row.Index] = row
		return nil
	})
	resp.Body.Close()
	if err != nil {
		fail("resume stream: %v", err)
	}
	if !done {
		fail("resume stream truncated after %d rows", len(resumeRows))
	}
	if summary.Errors != 0 || summary.Rows != len(resumeRows) {
		fail("resume summary %+v vs %d rows", summary, len(resumeRows))
	}
	fmt.Printf("resume streamed %d rows in %v with a truthful terminal summary\n",
		len(resumeRows), time.Since(start).Round(time.Millisecond))

	// Union check: indices <= P from the first stream plus the resume
	// must be exactly the grid; overlapping rows byte-identical.
	union := make(map[int][]byte, totalVariants)
	for idx, row := range firstRows {
		if idx <= p {
			union[idx] = row.Result
		}
	}
	overlap := 0
	for idx, row := range resumeRows {
		if first, ok := firstRows[idx]; ok {
			overlap++
			if !bytes.Equal(first.Result, row.Result) {
				fail("index %d differs between the first stream and the resume", idx)
			}
		}
		if _, dup := union[idx]; dup {
			fail("index %d covered twice in the union", idx)
		}
		union[idx] = row.Result
	}
	if len(union) != totalVariants {
		fail("union covers %d of %d variants — gaps in the resumed sweep", len(union), totalVariants)
	}
	for i := 0; i < totalVariants; i++ {
		if _, ok := union[i]; !ok {
			fail("index %d missing from the union", i)
		}
		want := byIndex[i]
		if got := firstRows[i].Hash; got != "" && got != want.Hash {
			fail("index %d hash %s, locally expanded %s", i, got, want.Hash)
		}
	}
	fmt.Printf("union exact: %d indices, no gaps, no duplicates, %d overlapping rows byte-identical\n",
		totalVariants, overlap)

	// 4. Work-stealing: the concurrency skew must have produced stolen
	// rows, and their envelopes must sit in the owner's store.
	checkRows := func(rows map[int]shard.Row) (stolen int) {
		checked := 0
		for _, row := range rows {
			if row.Stolen == "" {
				continue
			}
			stolen++
			var owner, thief int
			if _, err := fmt.Sscanf(row.Stolen, "%d->%d", &owner, &thief); err != nil ||
				owner == thief || owner < 0 || owner > 3 || thief < 0 || thief > 3 {
				fail("malformed stolen tag %q on index %d", row.Stolen, row.Index)
			}
			if row.Shard != thief {
				fail("stolen row %d served by shard %d, tag says thief %d", row.Index, row.Shard, thief)
			}
			if owner == victim || checked >= 5 {
				continue // the victim's store may have died with it
			}
			checked++
			v := byIndex[row.Index]
			status, hdr, body := clustertest.Post(sup.URLs()[owner]+"/run", map[string]any{"spec": v.Spec, "model": "rtl"})
			if status != http.StatusOK {
				fail("owner %d replay status %d: %s", owner, status, body)
			}
			if hdr.Get("X-Cache") != "hit" {
				fail("stolen index %d absent from owner %d's store (X-Cache %q) — write-back lost",
					row.Index, owner, hdr.Get("X-Cache"))
			}
			if !bytes.Equal(body, row.Result) {
				fail("stolen index %d: owner %d's stored envelope differs from the streamed row", row.Index, owner)
			}
		}
		return stolen
	}
	stolen := checkRows(firstRows) + checkRows(resumeRows)
	if stolen == 0 {
		fail("zero stolen rows across both streams — the 3:1 worker skew never forced a steal")
	}
	fmt.Printf("%d rows work-stolen; sampled write-backs present in owner stores byte-identically\n", stolen)

	// 5. The manifest says complete, and the stored analyze reproduces
	// the fault-free reference byte for byte with zero re-simulation.
	status, _, statusBody := clustertest.Get(front.URL + "/sweep/" + id)
	if status != http.StatusOK {
		fail("status %d: %s", status, statusBody)
	}
	var st service.SweepStatus
	if err := json.Unmarshal(statusBody, &st); err != nil {
		fail("status body: %v", err)
	}
	if !st.Complete || st.Total != totalVariants || st.Variants != totalVariants ||
		st.DoneCount != totalVariants || st.FailedCount != 0 {
		fail("status not complete: total %d variants %d done %d failed %d complete %v",
			st.Total, st.Variants, st.DoneCount, st.FailedCount, st.Complete)
	}

	start = time.Now()
	status, gotHdr, gotBody := clustertest.Post(front.URL+"/sweep/"+id+"/analyze", clustertest.Analysis(5))
	if status != http.StatusOK {
		fail("stored analyze status %d: %s", status, gotBody)
	}
	if gotHdr.Get(service.SweepIDHeader) != id {
		fail("stored analyze id header %q", gotHdr.Get(service.SweepIDHeader))
	}
	if !bytes.Equal(gotBody, refBody) {
		fail("stored analyze differs from the fault-free reference:\n%.300s\n%.300s", gotBody, refBody)
	}
	fmt.Printf("GET /sweep/{id} complete; stored analyze byte-identical to the fault-free reference (%v, zero re-simulation)\n",
		time.Since(start).Round(time.Millisecond))

	fmt.Println("bigsweep smoke OK: 10k-variant sweep survived a mid-stream SIGKILL and a client disconnect — exact union on resume, work-stealing write-backs placed by ownership, post-hoc analysis byte-identical")
}
