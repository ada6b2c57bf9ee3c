package tlm_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/tlm"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/results.ledger")

const ledgerPath = "testdata/results.ledger"

// TestResultLedger recomputes every result byte the ledger pins and
// compares it with the committed file. A line that moves names the
// scenario, or the cross-model input, whose bytes changed. Bytes may
// move only with service.ModelRevision, which the ledger records: the
// test fails, and -update refuses to rewrite, while a line moved under
// the revision the file was written at. New and dropped lines need no
// bump — a new input, or a spec with a new hash, has new keys.
func TestResultLedger(t *testing.T) {
	got := resultLedger(t)
	want, err := os.ReadFile(ledgerPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (generate it with -update)", err)
	}
	moved, added, dropped := diffLedger(want, got)
	report := func() {
		for _, m := range moved {
			t.Errorf("ledger line moved:\n  committed %s\n  computed  %s", m[0], m[1])
		}
		for _, line := range added {
			t.Errorf("ledger line added: %s", line)
		}
		for _, line := range dropped {
			t.Errorf("ledger line dropped: %s", line)
		}
	}
	if len(moved) > 0 && ledgerRevision(want) == service.ModelRevision {
		report()
		t.Fatalf("bytes moved: bump service.ModelRevision (still %s), then rewrite with -update", service.ModelRevision)
	}
	if *update {
		if err := os.WriteFile(ledgerPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(got, want) {
		report()
		t.Fatal("the ledger differs from the committed file: rewrite it with -update if that is meant")
	}
}

// ledgerRevision is the model revision a ledger records, "" if none.
func ledgerRevision(raw []byte) string {
	for _, line := range strings.Split(string(raw), "\n") {
		if rev, ok := strings.CutPrefix(line, "revision "); ok {
			return rev
		}
	}
	return ""
}

// diffLedger compares two ledgers line by line, keyed by each line's
// input: the line without its digest fields (tl=, rtl=, compare=), so
// a scenario's input includes its spec hash. A moved line pairs the
// committed and the computed line of one input.
func diffLedger(committed, computed []byte) (moved [][2]string, added, dropped []string) {
	input := func(line string) string {
		var id []string
		for _, f := range strings.Fields(line) {
			if !strings.HasPrefix(f, "tl=") && !strings.HasPrefix(f, "rtl=") && !strings.HasPrefix(f, "compare=") {
				id = append(id, f)
			}
		}
		return strings.Join(id, " ")
	}
	lines := func(raw []byte) (map[string]string, []string) {
		byInput := map[string]string{}
		var order []string
		for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
			if line != "" {
				byInput[input(line)] = line
				order = append(order, input(line))
			}
		}
		return byInput, order
	}
	was, wasOrder := lines(committed)
	now, nowOrder := lines(computed)
	for _, in := range wasOrder {
		if g, ok := now[in]; !ok {
			dropped = append(dropped, was[in])
		} else if g != was[in] {
			moved = append(moved, [2]string{was[in], g})
		}
	}
	for _, in := range nowOrder {
		if _, ok := was[in]; !ok {
			added = append(added, now[in])
		}
	}
	return moved, added, dropped
}

// resultLedger renders the ledger: a header, the model revision, one
// line per library scenario with its spec hash and the SHA-256 of the
// /run tl, /run rtl and /compare bodies the service answers with, one
// line digesting both models over the fixed cross-model seed corpus,
// and one line per drift seed digesting each model's run on it.
func resultLedger(t *testing.T) []byte {
	srv, err := service.New(service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := func(path string, req service.RunRequest) string {
		buf, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %+v: status %d: %s", path, req, rec.Code, rec.Body)
		}
		return fmt.Sprintf("%x", sha256.Sum256(rec.Body.Bytes()))
	}
	var b bytes.Buffer
	b.WriteString("# Result ledger. Regenerate: go test ./internal/tlm -run '^TestResultLedger$' -update\n")
	fmt.Fprintf(&b, "revision %s\n", service.ModelRevision)
	for _, sp := range spec.Scenarios() {
		h, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "scenario %s spec=%s tl=%s rtl=%s compare=%s\n", sp.Name, h,
			body("/run", service.RunRequest{Scenario: sp.Name, Model: "tl"}),
			body("/run", service.RunRequest{Scenario: sp.Name, Model: "rtl"}),
			body("/compare", service.RunRequest{Scenario: sp.Name}))
	}

	digests := map[string]hash.Hash{"rtl": sha256.New(), "tl": sha256.New()}
	seeds := tlm.EachCrossModelRun(func(model string, res platform.Result, mem *memmodel.Memory, recs []trace.Record) {
		digestRun(t, digests[model], res, mem, recs)
	})
	fmt.Fprintf(&b, "crossmodel seeds=%d rtl=%x tl=%x\n", seeds,
		digests["rtl"].Sum(nil), digests["tl"].Sum(nil))

	tlm.EachDriftRun(func(label string, rtl, tl tlm.Outcome) {
		digest := func(o tlm.Outcome) []byte {
			h := sha256.New()
			digestRun(t, h, o.Res, o.Mem, o.Recs)
			return h.Sum(nil)
		}
		fmt.Fprintf(&b, "drift %s rtl=%x tl=%x\n", label, digest(rtl), digest(tl))
	})
	return b.Bytes()
}

// digestRun folds one run's cycle count, completion, full profile,
// transaction stream and memory image into h.
func digestRun(t *testing.T, h hash.Hash, res platform.Result, mem *memmodel.Memory, recs []trace.Record) {
	st, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%d %v %s\n", res.Cycles, res.Completed, st)
	for _, r := range recs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	page := make([]byte, 4096)
	for _, base := range mem.Snapshot() {
		mem.Read(base, page)
		fmt.Fprintf(h, "%#x %x\n", base, page)
	}
}
