package service

// Append encoders for the two hot serving bodies: the /run result and
// the /sweep line. encoding/json defines the bytes; each encoder writes
// exactly what json.Marshal writes for the same value, field by field,
// without reflection. Where a value falls outside what an encoder
// knows — a sweep line type it does not name, a params value that is
// not a bool, string, int or finite float64, a result that is not
// already in json.Marshal's form — it declines and the caller marshals
// the whole value with encoding/json, which then supplies the bytes or
// the error. FuzzRunResponse and FuzzSweepLine hold both encoders to
// encoding/json.

import (
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/ddr"
	"repro/internal/jsonenc"
	"repro/internal/stats"
)

// bodyBufs holds the scratch buffers /run bodies are encoded in before
// being copied out at their final size, so that a cached body carries
// no spare capacity, as json.Marshal's did not.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeRunResponse returns json.Marshal(r)'s bytes.
func encodeRunResponse(r *RunResponse) []byte {
	buf := bodyBufs.Get().(*[]byte)
	*buf = appendRunResponse((*buf)[:0], r)
	body := slices.Clone(*buf)
	bodyBufs.Put(buf)
	return body
}

func appendRunResponse(b []byte, r *RunResponse) []byte {
	b = jsonenc.AppendQuoted(append(b, `{"name":`...), r.Name)
	b = jsonenc.AppendQuoted(append(b, `,"hash":`...), r.Hash)
	b = jsonenc.AppendQuoted(append(b, `,"model":`...), r.Model)
	b = strconv.AppendUint(append(b, `,"cycles":`...), r.Cycles, 10)
	b = strconv.AppendBool(append(b, `,"completed":`...), r.Completed)
	b = strconv.AppendUint(append(b, `,"violations":`...), r.Violations, 10)
	if r.Stats != nil {
		b = appendBus(append(b, `,"stats":`...), r.Stats)
	}
	return append(b, '}')
}

// appendBus encodes a stats.Bus, whose fields carry no tags: each key
// is its Go field name.
func appendBus(b []byte, s *stats.Bus) []byte {
	b = strconv.AppendUint(append(b, `{"Cycles":`...), uint64(s.Cycles), 10)
	b = strconv.AppendUint(append(b, `,"BusyBeats":`...), s.BusyBeats, 10)
	b = strconv.AppendUint(append(b, `,"Grants":`...), s.Grants, 10)
	b = strconv.AppendUint(append(b, `,"ArbRounds":`...), s.ArbRounds, 10)
	b = strconv.AppendUint(append(b, `,"WBPosted":`...), s.WBPosted, 10)
	b = strconv.AppendUint(append(b, `,"WBDrained":`...), s.WBDrained, 10)
	b = strconv.AppendUint(append(b, `,"WBFullStalls":`...), s.WBFullStalls, 10)
	b = strconv.AppendInt(append(b, `,"WBPeak":`...), int64(s.WBPeak), 10)
	b = append(b, `,"Masters":`...)
	if s.Masters == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range s.Masters {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendMasterStats(b, &s.Masters[i])
		}
		b = append(b, ']')
	}
	b = appendDDRStats(append(b, `,"DDR":`...), &s.DDR)
	b = append(b, `,"FilterDecisive":`...)
	if s.FilterDecisive == nil {
		b = append(b, "null"...)
	} else {
		var scratch [8]string
		b = append(b, '{')
		for i, k := range sortedKeys(s.FilterDecisive, scratch[:0]) {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(jsonenc.AppendQuoted(b, k), ':')
			b = strconv.AppendUint(b, s.FilterDecisive[k], 10)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

func appendMasterStats(b []byte, m *stats.Master) []byte {
	b = jsonenc.AppendQuoted(append(b, `{"Name":`...), m.Name)
	b = strconv.AppendUint(append(b, `,"Txns":`...), m.Txns, 10)
	b = strconv.AppendUint(append(b, `,"Beats":`...), m.Beats, 10)
	b = strconv.AppendUint(append(b, `,"Bytes":`...), m.Bytes, 10)
	b = strconv.AppendUint(append(b, `,"Reads":`...), m.Reads, 10)
	b = strconv.AppendUint(append(b, `,"Writes":`...), m.Writes, 10)
	b = strconv.AppendUint(append(b, `,"WaitCycles":`...), uint64(m.WaitCycles), 10)
	b = strconv.AppendUint(append(b, `,"LatencySum":`...), uint64(m.LatencySum), 10)
	b = strconv.AppendUint(append(b, `,"LatencyMin":`...), uint64(m.LatencyMin), 10)
	b = strconv.AppendUint(append(b, `,"LatencyMax":`...), uint64(m.LatencyMax), 10)
	b = strconv.AppendUint(append(b, `,"QoSViolations":`...), m.QoSViolations, 10)
	b = strconv.AppendUint(append(b, `,"Errors":`...), m.Errors, 10)
	b = append(b, `,"Hist":[`...)
	for i, n := range m.Hist {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, n, 10)
	}
	return append(b, "]}"...)
}

func appendDDRStats(b []byte, d *ddr.Stats) []byte {
	b = strconv.AppendUint(append(b, `{"Reads":`...), d.Reads, 10)
	b = strconv.AppendUint(append(b, `,"Writes":`...), d.Writes, 10)
	b = strconv.AppendUint(append(b, `,"RowHits":`...), d.RowHits, 10)
	b = strconv.AppendUint(append(b, `,"RowMisses":`...), d.RowMisses, 10)
	b = strconv.AppendUint(append(b, `,"RowConflicts":`...), d.RowConflicts, 10)
	b = strconv.AppendUint(append(b, `,"Activates":`...), d.Activates, 10)
	b = strconv.AppendUint(append(b, `,"Precharges":`...), d.Precharges, 10)
	b = strconv.AppendUint(append(b, `,"Refreshes":`...), d.Refreshes, 10)
	b = strconv.AppendUint(append(b, `,"HintActivates":`...), d.HintActivates, 10)
	b = strconv.AppendUint(append(b, `,"HintPrecharges":`...), d.HintPrecharges, 10)
	b = strconv.AppendUint(append(b, `,"DataBeats":`...), d.DataBeats, 10)
	b = strconv.AppendUint(append(b, `,"DataBusBusy":`...), uint64(d.DataBusBusy), 10)
	return append(b, '}')
}

// appendLine encodes one sweep stream line without its newline. The
// line types are matched by name, never through a method: a method on
// SweepRow would be promoted into every type that embeds it and encode
// such a line without its own fields. ok=false means the caller must
// use encoding/json — the type is not one of these, or a value in it
// is outside what the encoder knows.
func appendLine(b []byte, line any) (out []byte, ok bool) {
	switch l := line.(type) {
	case SweepRow:
		if b, ok = appendRowFields(b, &l); ok {
			b = append(b, '}')
		}
		return b, ok
	case PlacedRow:
		if b, ok = appendRowFields(b, &l.SweepRow); !ok {
			return b, false
		}
		b = strconv.AppendInt(append(b, `,"shard":`...), int64(l.Shard), 10)
		if l.Failover != "" {
			b = jsonenc.AppendQuoted(append(b, `,"failover":`...), l.Failover)
		}
		if l.Stolen != "" {
			b = jsonenc.AppendQuoted(append(b, `,"stolen":`...), l.Stolen)
		}
		return append(b, '}'), true
	case SweepSummary:
		b = strconv.AppendBool(append(b, `{"done":`...), l.Done)
		b = strconv.AppendInt(append(b, `,"rows":`...), int64(l.Rows), 10)
		b = strconv.AppendInt(append(b, `,"errors":`...), int64(l.Errors), 10)
		return append(b, '}'), true
	}
	return b, false
}

// appendRowFields encodes a SweepRow's members, leaving its object open
// for an embedding line's own. A result is copied only when it is
// already what json.Marshal would write for it: checked here, unless
// the row was settled from bytes checked on their way in.
func appendRowFields(b []byte, r *SweepRow) ([]byte, bool) {
	b = strconv.AppendInt(append(b, `{"index":`...), int64(r.Index), 10)
	b = jsonenc.AppendQuoted(append(b, `,"name":`...), r.Name)
	b = jsonenc.AppendQuoted(append(b, `,"hash":`...), r.Hash)
	b, ok := appendParams(append(b, `,"params":`...), r.Params)
	if !ok {
		return b, false
	}
	if r.Cache != "" {
		b = jsonenc.AppendQuoted(append(b, `,"cache":`...), r.Cache)
	}
	if len(r.Result) != 0 {
		if !r.verbatim && !jsonenc.Verbatim(r.Result) {
			return b, false
		}
		b = append(append(b, `,"result":`...), r.Result...)
	}
	if r.Error != "" {
		b = jsonenc.AppendQuoted(append(b, `,"error":`...), r.Error)
	}
	return b, true
}

// appendParams encodes a variant's axis values, keys sorted as
// json.Marshal sorts them. ok=false for a value that is not a bool,
// string, int or finite float64.
func appendParams(b []byte, params map[string]any) ([]byte, bool) {
	if params == nil {
		return append(b, "null"...), true
	}
	var scratch [8]string
	b = append(b, '{')
	for i, k := range sortedKeys(params, scratch[:0]) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(jsonenc.AppendQuoted(b, k), ':')
		switch v := params[k].(type) {
		case bool:
			b = strconv.AppendBool(b, v)
		case string:
			b = jsonenc.AppendQuoted(b, v)
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		case float64:
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return b, false
			}
			b = jsonenc.AppendFloat(b, v)
		default:
			return b, false
		}
	}
	return append(b, '}'), true
}

// sortedKeys appends m's keys to keys in byte order, the order
// json.Marshal writes a map in.
func sortedKeys[V any](m map[string]V, keys []string) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
