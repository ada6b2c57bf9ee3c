// Package trace records per-transaction timelines for debugging and for
// the profiling integration the paper describes (§3.6). A Recorder is
// optional everywhere: a nil *Recorder records nothing at zero cost.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// Record is the full timeline of one transaction.
type Record struct {
	// ID is the bus-assigned transaction number.
	ID uint64
	// Master is the issuing port index.
	Master int
	// Addr is the first-beat address.
	Addr uint32
	// Write is the direction.
	Write bool
	// Beats is the burst length.
	Beats int
	// Req is the cycle the request became visible to the arbiter.
	Req sim.Cycle
	// Grant is the cycle the grant became visible to the master.
	Grant sim.Cycle
	// FirstData and Done bound the data phase.
	FirstData, Done sim.Cycle
	// Kind describes the DDR page outcome ("hit"/"miss"/"conflict"),
	// "posted" for write-buffer absorbed writes, "sram" for the on-chip
	// SRAM slave or "error" for an unmapped address.
	Kind string
}

// Recorder stores transaction records up to a cap.
type Recorder struct {
	// Cap limits stored records; 0 means unlimited.
	Cap int

	recs    []Record
	dropped uint64
}

// New returns a Recorder storing at most cap records (0 = unlimited).
func New(cap int) *Recorder { return &Recorder{Cap: cap} }

// Add stores r. A nil Recorder ignores the call.
func (t *Recorder) Add(r Record) {
	if t == nil {
		return
	}
	if t.Cap > 0 && len(t.recs) >= t.Cap {
		t.dropped++
		return
	}
	t.recs = append(t.recs, r)
}

// Records returns the stored records.
func (t *Recorder) Records() []Record {
	if t == nil {
		return nil
	}
	return t.recs
}

// Dropped returns how many records were discarded due to the cap.
func (t *Recorder) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// WriteText renders a fixed-width human-readable trace.
func (t *Recorder) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%6s %4s %3s %10s %5s %8s %8s %8s %8s %s\n",
		"id", "mst", "dir", "addr", "beats", "req", "grant", "first", "done", "kind")
	for _, r := range t.Records() {
		dir := "R"
		if r.Write {
			dir = "W"
		}
		fmt.Fprintf(w, "%6d %4d %3s %#10x %5d %8d %8d %8d %8d %s\n",
			r.ID, r.Master, dir, r.Addr, r.Beats,
			uint64(r.Req), uint64(r.Grant), uint64(r.FirstData), uint64(r.Done), r.Kind)
	}
}

// WriteCSV renders the trace as CSV with a header row.
func (t *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "master", "dir", "addr", "beats", "req", "grant", "first_data", "done", "kind"}); err != nil {
		return err
	}
	for _, r := range t.Records() {
		dir := "R"
		if r.Write {
			dir = "W"
		}
		row := []string{
			strconv.FormatUint(r.ID, 10),
			strconv.Itoa(r.Master),
			dir,
			fmt.Sprintf("%#x", r.Addr),
			strconv.Itoa(r.Beats),
			strconv.FormatUint(uint64(r.Req), 10),
			strconv.FormatUint(uint64(r.Grant), 10),
			strconv.FormatUint(uint64(r.FirstData), 10),
			strconv.FormatUint(uint64(r.Done), 10),
			r.Kind,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
