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
// scenario, or the cross-model corpus, whose bytes changed. Rewrite the
// file with -update only for a change that is meant to move results.
func TestResultLedger(t *testing.T) {
	got := resultLedger(t)
	if *update {
		if err := os.WriteFile(ledgerPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("ledger line %d moved:\n  committed %s\n  computed  %s", i+1, w, g)
		}
	}
}

// resultLedger renders the ledger: a header, one line per library
// scenario with its spec hash and the SHA-256 of the /run tl, /run rtl
// and /compare bodies the service answers with, and one line digesting
// both models over the fixed cross-model seed corpus.
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
