// POST /batch — the sweep dispatch side channel (worker only; wire
// format and bounds in docs/api.md).
//
// A shard router sends a run of sweep variants that share this worker
// as their owner in one call instead of one POST /run each. The body is
// one line per variant, each byte-for-byte the RunRequest a direct /run
// (?op=run) or /compare (?op=compare) would carry; the reply is one
// record per line, in line order, cut by length so that a reader never
// scans result JSON:
//
//	<status> <cache> <terminal> <len>\n<body>\n
//
// Every line goes through exactly what its own request would — strict
// decode, cycle cap, validation, the hash recomputed from the decoded
// spec, the cache/singleflight walk, one scheduler admission under the
// call's X-Tenant/X-Class — so a result is cached under the same key
// with the same bytes whichever door it came through. Lines run in
// order and wait saturation out like a sweep's own variants; a reply
// may be short, and what it does not settle is the caller's to send
// elsewhere.
package service

import (
	"bytes"
	"io"
	"net/http"
	"strconv"

	"repro/internal/sched"
)

// BatchRecord is one line's outcome in a POST /batch reply.
type BatchRecord struct {
	Status   int    // the status the line's own /run or /compare would have had
	Cache    string // a 200's disposition: hit, coalesced or miss
	Terminal bool   // a 503 from a worker that is shutting down
	Body     []byte
}

// appendBatchRecord frames rec onto reply.
func appendBatchRecord(reply []byte, rec BatchRecord) []byte {
	cache, terminal := rec.Cache, byte('0')
	if cache == "" {
		cache = "-"
	}
	if rec.Terminal {
		terminal = '1'
	}
	reply = append(strconv.AppendInt(reply, int64(rec.Status), 10), ' ')
	reply = append(append(reply, cache...), ' ', terminal, ' ')
	reply = append(strconv.AppendInt(reply, int64(len(rec.Body)), 10), '\n')
	return append(append(reply, rec.Body...), '\n')
}

// parseBatchReply splits a POST /batch reply into at most n records. It
// stops at the first frame that is incomplete or malformed, so what it
// returns is always a prefix of the lines sent: a reply cut short is a
// short reply, never a misparsed one. Bodies alias reply.
func parseBatchReply(reply []byte, n int) []BatchRecord {
	records := make([]BatchRecord, 0, n)
	for len(records) < n {
		head, rest, found := bytes.Cut(reply, []byte("\n"))
		fields := bytes.Fields(head)
		if !found || len(fields) != 4 {
			break
		}
		status, err := strconv.Atoi(string(fields[0]))
		size, sizeErr := strconv.Atoi(string(fields[3]))
		if err != nil || sizeErr != nil || size < 0 || size >= len(rest) || rest[size] != '\n' {
			break
		}
		rec := BatchRecord{Status: status, Terminal: string(fields[2]) == "1", Body: rest[:size:size]}
		if cache := string(fields[1]); cache != "-" {
			rec.Cache = cache
		}
		records = append(records, rec)
		reply = rest[size+1:]
	}
	return records
}

// handleBatch serves POST /batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	op := r.URL.Query().Get("op")
	if op != "run" && op != "compare" {
		WriteError(w, r, http.StatusBadRequest, "op %q is not a batch operation (want run or compare)", op)
		return
	}
	id, err := ParseIdent(r, sched.Batch)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// Everything is read and counted before any line runs, so a batch
	// over either bound is one 400 and costs no simulation.
	const maxBatchBytes = maxSweepRun * (MaxBodyBytes + 1)
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBytes+1))
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, "reading batch: %v", err)
		return
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) > maxSweepRun || len(body) > maxBatchBytes {
		WriteError(w, r, http.StatusBadRequest, "batch of %d lines, %d bytes (max %d lines of %d bytes)",
			len(lines), len(body), maxSweepRun, MaxBodyBytes)
		return
	}
	var reply []byte
	for _, line := range lines {
		rec, ok := s.runBatchLine(r, line, op == "compare", id)
		if !ok {
			return // client gone; what already ran has filled the cache
		}
		reply = appendBatchRecord(reply, rec)
		if rec.Terminal {
			break // shutting down: the remaining lines could only repeat it
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(reply)
}

// runBatchLine answers one line the way handleExec answers the request
// it is the body of, with the sweep's patience in place of a saturation
// 503. A line that does not decode, breaks the cycle cap, fails
// validation or names an unknown model is that line's 400, with /run's
// own error text. ok=false means the caller is gone.
func (s *Server) runBatchLine(r *http.Request, line []byte, compare bool, id Ident) (rec BatchRecord, ok bool) {
	req, sp, hash, wl, err := s.decodeRequest(line)
	var m SweepModel
	if err == nil {
		m, err = execModel(req.Model, compare)
	}
	if err != nil {
		return BatchRecord{Status: http.StatusBadRequest, Body: errorBody(r, err.Error())}, true
	}
	status, body, disposition, ok := s.executePatient(r.Context(), m.Key(hash), id, m.compute(sp, hash, wl), false)
	if !ok {
		return BatchRecord{}, false
	}
	rec = BatchRecord{Status: status, Body: body, Terminal: disposition == dispositionClosed}
	if status == http.StatusOK {
		rec.Cache = disposition
	}
	return rec, true
}
