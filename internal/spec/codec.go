package spec

// The spec codec without reflection: a fast reader for the documents
// this repository's own encoders and clients write, and the append
// encoder behind Canonical.
//
// encoding/json defines the format. The reader answers only where
// encoding/json would decode the same bytes to the same value without
// error, restricted to one shape: exact-case keys, each at most once; no
// null; integers as plain literals that fit their field; strings with no
// escape, control byte or byte ≥ 0x80. On anything else it declines, and
// the caller decodes the same bytes with encoding/json, which returns its
// own value or its own error. The encoder is byte-identical to
// json.Marshal for every Spec, and hands a non-finite float — the one
// value json.Marshal refuses — to json.Marshal for the error.
// FuzzRoundTrip, FuzzCanonical and the service's FuzzResolveRunRequest
// hold both halves to encoding/json.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/arb"
	"repro/internal/config"
	"repro/internal/ddr"
	"repro/internal/jsonenc"
	"repro/internal/sim"
)

// errTrailingData reports content other than whitespace after a
// decoded document.
var errTrailingData = errors.New("trailing data after document")

// DecodeStrict decodes data, one JSON document, into v with
// encoding/json: unknown fields and anything but whitespace after the
// document are errors. It is what a caller of a fast reader falls back
// to when the reader declines.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return checkEOF(dec)
}

// checkEOF returns errTrailingData unless nothing but whitespace
// follows the document dec has decoded.
func checkEOF(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// RunBody is a request body that names its workload: an inline spec or a
// library scenario, and a model selector. Its fields are those of the
// service's /run request, in the same order.
type RunBody struct {
	Spec     *Spec
	Scenario string
	Model    string
}

// ReadRunBody is the fast reader for a /run-shaped body
// ({"spec":…,"scenario":…,"model":…}). ok=false means it declined: the
// body is outside the reader's shape, and only encoding/json can say
// what it decodes to or why it does not.
func ReadRunBody(data []byte) (body RunBody, ok bool) {
	r := reader{b: data}
	r.object(func(key []byte) uint {
		switch string(key) {
		case "spec":
			body.Spec = new(Spec)
			r.spec(body.Spec)
			return 1
		case "scenario":
			body.Scenario = r.str()
			return 2
		case "model":
			body.Model = r.str()
			return 3
		}
		return 0
	})
	return body, r.end()
}

// readSpec is the fast reader for a bare spec document.
func readSpec(data []byte) (s Spec, ok bool) {
	r := reader{b: data}
	r.spec(&s)
	return s, r.end()
}

// reader is one pass over a document. Every method consumes one value
// of the type it reads and sets bad instead of reading anything outside
// the shape; once bad, peek reports the end of input, so every loop
// stops and the caller only has to look at the flag at the end.
type reader struct {
	b   []byte
	i   int
	bad bool
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input or once the reader has declined.
func (r *reader) peek() byte {
	if r.bad {
		return 0
	}
	b, i := r.b, r.i
	for ; i < len(b); i++ {
		// Every whitespace byte is at most ' '.
		if c := b[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			r.i = i
			return c
		}
	}
	r.i = i
	return 0
}

// eat consumes c, the next byte after whitespace, or declines.
func (r *reader) eat(c byte) bool {
	if r.peek() != c {
		r.bad = true
		return false
	}
	r.i++
	return true
}

// end reports whether the document was read whole, with nothing but
// whitespace after it.
func (r *reader) end() bool {
	r.peek()
	return !r.bad && r.i == len(r.b)
}

// object reads one object. field reads the value of the member named
// key and returns the member's ordinal in its struct (1-63), or 0 for a
// key the struct does not have; an unknown or repeated key declines.
func (r *reader) object(field func(key []byte) uint) {
	if !r.eat('{') {
		return
	}
	if r.peek() == '}' {
		r.i++
		return
	}
	var seen uint64
	for {
		key := r.raw()
		if !r.eat(':') {
			return
		}
		n := field(key)
		if n == 0 || seen&(1<<n) != 0 {
			r.bad = true
			return
		}
		seen |= 1 << n
		switch r.peek() {
		case ',':
			r.i++
		case '}':
			r.i++
			return
		default:
			r.bad = true
			return
		}
	}
}

// array reads one array, calling elem to read each element.
func (r *reader) array(elem func()) {
	if !r.eat('[') {
		return
	}
	if r.peek() == ']' {
		r.i++
		return
	}
	for {
		elem()
		switch r.peek() {
		case ',':
			r.i++
		case ']':
			r.i++
			return
		default:
			r.bad = true
			return
		}
	}
}

// grow appends one zero element to *list and returns it; the first
// makes room for a few, the usual length of every list in a spec. A
// caller starts the list at an empty slice, not nil, because that is
// what encoding/json decodes [] to.
func grow[T any](list *[]T) *T {
	if cap(*list) == 0 {
		*list = make([]T, 0, 4)
	}
	*list = append(*list, *new(T))
	return &(*list)[len(*list)-1]
}

// raw reads a string literal and returns its bytes between the quotes.
func (r *reader) raw() []byte {
	if !r.eat('"') {
		return nil
	}
	b, start := r.b, r.i
	for i := start; i < len(b); i++ {
		if c := b[i]; !plain[c] {
			if c == '"' {
				r.i = i + 1
				return b[start:i]
			}
			break
		}
	}
	r.bad = true
	return nil
}

// plain marks the bytes the reader takes inside a string literal: ASCII
// from ' ' up, except the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a string. A generator kind is returned as the constant, so
// the common values cost no allocation.
func (r *reader) str() string {
	b := r.raw()
	for _, k := range [...]string{KindSequential, KindRandom, KindBursty, KindStream, KindScript} {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}

// bool reads true or false.
func (r *reader) bool() bool {
	switch r.peek() {
	case 't':
		if bytes.HasPrefix(r.b[r.i:], []byte("true")) {
			r.i += 4
			return true
		}
	case 'f':
		if bytes.HasPrefix(r.b[r.i:], []byte("false")) {
			r.i += 5
			return false
		}
	}
	r.bad = true
	return false
}

// integer reads a plain integer literal — an optional minus, then 0 or
// a digit run without a leading zero — as sign and magnitude. A
// fraction, an exponent, "-0" or a magnitude beyond uint64 declines.
func (r *reader) integer() (neg bool, mag uint64) {
	if r.peek() == '-' {
		neg = true
		r.i++
	}
	b, start := r.b, r.i
	i := start
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if mag > (math.MaxUint64-d)/10 {
			r.bad = true
			return
		}
		mag = mag*10 + d
	}
	r.i = i
	if n := i - start; n == 0 || n > 1 && b[start] == '0' || neg && mag == 0 {
		r.bad = true
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		r.bad = true
	}
	return neg, mag
}

// uint reads a non-negative integer no larger than limit.
func (r *reader) uint(limit uint64) uint64 {
	neg, v := r.integer()
	if neg || v > limit {
		r.bad = true
	}
	return v
}

// int reads an integer in [-limit-1, limit].
func (r *reader) int(limit int64) int64 {
	neg, v := r.integer()
	switch {
	case !neg && v <= uint64(limit):
		return int64(v)
	case neg && v <= uint64(limit)+1:
		return -int64(v)
	}
	r.bad = true
	return 0
}

// float reads a JSON number with strconv.ParseFloat, the conversion
// encoding/json itself makes; a value out of float64's range declines.
func (r *reader) float() float64 {
	r.peek()
	b, start := r.b, r.i
	i := start
	digits := func() int {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	ok := i < len(b) && b[i] == '0'
	if ok {
		i++
	} else {
		ok = digits() > 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		ok = ok && digits() > 0
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok = ok && digits() > 0
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if !ok || err != nil {
		r.bad = true
	}
	r.i = i
	return f
}

func (r *reader) spec(s *Spec) {
	r.object(func(key []byte) uint {
		switch string(key) {
		case "version":
			s.SpecVersion = int(r.int(math.MaxInt))
			return 1
		case "name":
			s.Name = r.str()
			return 2
		case "params":
			r.params(&s.Params)
			return 3
		case "masters":
			s.Masters = []GenSpec{}
			r.array(func() { r.gen(grow(&s.Masters)) })
			return 4
		case "max_cycles":
			s.MaxCycles = r.uint(math.MaxUint64)
			return 5
		}
		return 0
	})
}

func (r *reader) params(p *config.Params) {
	r.object(func(key []byte) uint {
		switch string(key) {
		case "bus_bytes":
			p.BusBytes = int(r.int(math.MaxInt))
			return 1
		case "masters":
			p.Masters = []config.MasterCfg{}
			r.array(func() { r.master(grow(&p.Masters)) })
			return 2
		case "write_buffer_depth":
			p.WriteBufferDepth = int(r.int(math.MaxInt))
			return 3
		case "pipelining":
			p.Pipelining = r.bool()
			return 4
		case "bi_enabled":
			p.BIEnabled = r.bool()
			return 5
		case "bi_latency":
			p.BILatency = r.uint(math.MaxUint64)
			return 6
		case "filters":
			r.filters(&p.Filters)
			return 7
		case "urgency_threshold":
			p.UrgencyThreshold = r.uint(math.MaxUint64)
			return 8
		case "ddr":
			r.timing(&p.DDR)
			return 9
		case "addr_map":
			r.addrMap(&p.AddrMap)
			return 10
		case "sram":
			r.sram(&p.SRAM)
			return 11
		case "closed_page":
			p.ClosedPage = r.bool()
			return 12
		case "max_cycles":
			p.MaxCycles = r.uint(math.MaxUint64)
			return 13
		}
		return 0
	})
}

func (r *reader) master(m *config.MasterCfg) {
	r.object(func(key []byte) uint {
		switch string(key) {
		case "name":
			m.Name = r.str()
			return 1
		case "real_time":
			m.RealTime = r.bool()
			return 2
		case "qos_objective":
			m.QoSObjective = r.uint(math.MaxUint64)
			return 3
		case "bandwidth_quota":
			m.BandwidthQuota = r.float()
			return 4
		}
		return 0
	})
}

func (r *reader) filters(e *arb.Enabled) {
	r.object(func(key []byte) uint {
		switch string(key) {
		case "Permission":
			e.Permission = r.bool()
			return 1
		case "Urgency":
			e.Urgency = r.bool()
			return 2
		case "RealTime":
			e.RealTime = r.bool()
			return 3
		case "Bandwidth":
			e.Bandwidth = r.bool()
			return 4
		case "BankAffinity":
			e.BankAffinity = r.bool()
			return 5
		case "WriteBuffer":
			e.WriteBuffer = r.bool()
			return 6
		}
		return 0
	})
}

func (r *reader) timing(t *ddr.Timing) {
	r.object(func(key []byte) uint {
		var c *sim.Cycle
		var n uint
		switch string(key) {
		case "TRCD":
			c, n = &t.TRCD, 1
		case "TRP":
			c, n = &t.TRP, 2
		case "TCL":
			c, n = &t.TCL, 3
		case "TWL":
			c, n = &t.TWL, 4
		case "TRAS":
			c, n = &t.TRAS, 5
		case "TRC":
			c, n = &t.TRC, 6
		case "TWR":
			c, n = &t.TWR, 7
		case "TRRD":
			c, n = &t.TRRD, 8
		case "TREFI":
			c, n = &t.TREFI, 9
		case "TRFC":
			c, n = &t.TRFC, 10
		default:
			return 0
		}
		*c = sim.Cycle(r.uint(math.MaxUint64))
		return n
	})
}

func (r *reader) addrMap(m *ddr.AddrMap) {
	r.object(func(key []byte) uint {
		var f *uint
		var n uint
		switch string(key) {
		case "BeatBytesLog2":
			f, n = &m.BeatBytesLog2, 1
		case "ColBits":
			f, n = &m.ColBits, 2
		case "BankBits":
			f, n = &m.BankBits, 3
		case "RowBits":
			f, n = &m.RowBits, 4
		default:
			return 0
		}
		*f = uint(r.uint(math.MaxUint))
		return n
	})
}

func (r *reader) sram(s *config.SRAMCfg) {
	r.object(func(key []byte) uint {
		switch string(key) {
		case "enabled":
			s.Enabled = r.bool()
			return 1
		case "base":
			s.Base = uint32(r.uint(math.MaxUint32))
			return 2
		case "size":
			s.Size = uint32(r.uint(math.MaxUint32))
			return 3
		case "wait_states":
			s.WaitStates = r.uint(math.MaxUint64)
			return 4
		}
		return 0
	})
}

func (r *reader) gen(g *GenSpec) {
	r.object(func(key []byte) uint {
		switch string(key) {
		case "kind":
			g.Kind = r.str()
			return 1
		case "name":
			g.Name = r.str()
			return 2
		case "base":
			g.Base = uint32(r.uint(math.MaxUint32))
			return 3
		case "beats":
			g.Beats = int(r.int(math.MaxInt))
			return 4
		case "count":
			g.Count = int(r.int(math.MaxInt))
			return 5
		case "gap":
			g.Gap = r.uint(math.MaxUint64)
			return 6
		case "write_every":
			g.WriteEvery = int(r.int(math.MaxInt))
			return 7
		case "wrap_bytes":
			g.WrapBytes = uint32(r.uint(math.MaxUint32))
			return 8
		case "stride_bytes":
			g.StrideBytes = uint32(r.uint(math.MaxUint32))
			return 9
		case "beat_bytes":
			g.BeatBytes = int(r.int(math.MaxInt))
			return 10
		case "seed":
			g.Seed = r.int(math.MaxInt64)
			return 11
		case "window_bytes":
			g.WindowBytes = uint32(r.uint(math.MaxUint32))
			return 12
		case "max_beats":
			g.MaxBeats = int(r.int(math.MaxInt))
			return 13
		case "write_frac":
			g.WriteFrac = r.float()
			return 14
		case "mean_gap":
			g.MeanGap = int(r.int(math.MaxInt))
			return 15
		case "burst_txns":
			g.BurstTxns = int(r.int(math.MaxInt))
			return 16
		case "idle_gap":
			g.IdleGap = r.uint(math.MaxUint64)
			return 17
		case "period":
			g.Period = r.uint(math.MaxUint64)
			return 18
		case "write":
			g.Write = r.bool()
			return 19
		case "reqs":
			g.Reqs = []ReqSpec{}
			r.array(func() { r.req(grow(&g.Reqs)) })
			return 20
		}
		return 0
	})
}

func (r *reader) req(q *ReqSpec) {
	r.object(func(key []byte) uint {
		switch string(key) {
		case "at":
			q.At = r.uint(math.MaxUint64)
			return 1
		case "addr":
			q.Addr = uint32(r.uint(math.MaxUint32))
			return 2
		case "write":
			q.Write = r.bool()
			return 3
		case "beats":
			q.Beats = int(r.int(math.MaxInt))
			return 4
		}
		return 0
	})
}

// canonical appends the canonical encoding of s to b — json.Marshal's
// bytes, field by field — and returns the span of the name's encoded
// contents between its quotes.
func (s *Spec) canonical(b []byte) (out []byte, name [2]int, err error) {
	if !s.finite() {
		// The one value json.Marshal refuses; let it word the refusal.
		// (A copy, so that s itself need not live on the heap.)
		c := *s
		_, err := json.Marshal(c)
		return nil, name, fmt.Errorf("spec: %w", err)
	}
	b = strconv.AppendInt(append(b, `{"version":`...), int64(s.SpecVersion), 10)
	b = append(b, `,"name":"`...)
	name[0] = len(b)
	b = jsonenc.AppendString(b, s.Name)
	name[1] = len(b)
	b = appendParams(append(b, `","params":`...), &s.Params)
	b = append(b, `,"masters":`...)
	b = appendList(b, s.Masters, appendGen)
	if s.MaxCycles != 0 {
		b = strconv.AppendUint(append(b, `,"max_cycles":`...), s.MaxCycles, 10)
	}
	return append(b, '}'), name, nil
}

// finite reports whether every float in s is finite.
func (s *Spec) finite() bool {
	ok := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	for _, m := range s.Params.Masters {
		if !ok(m.BandwidthQuota) {
			return false
		}
	}
	for _, g := range s.Masters {
		if !ok(g.WriteFrac) {
			return false
		}
	}
	return true
}

// appendList appends a slice as json.Marshal does: null when nil.
func appendList[T any](b []byte, list []T, elem func([]byte, *T) []byte) []byte {
	if list == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &list[i])
	}
	return append(b, ']')
}

func appendParams(b []byte, p *config.Params) []byte {
	b = strconv.AppendInt(append(b, `{"bus_bytes":`...), int64(p.BusBytes), 10)
	b = appendList(append(b, `,"masters":`...), p.Masters, appendMaster)
	b = strconv.AppendInt(append(b, `,"write_buffer_depth":`...), int64(p.WriteBufferDepth), 10)
	b = strconv.AppendBool(append(b, `,"pipelining":`...), p.Pipelining)
	b = strconv.AppendBool(append(b, `,"bi_enabled":`...), p.BIEnabled)
	b = strconv.AppendUint(append(b, `,"bi_latency":`...), p.BILatency, 10)
	f := &p.Filters
	b = strconv.AppendBool(append(b, `,"filters":{"Permission":`...), f.Permission)
	b = strconv.AppendBool(append(b, `,"Urgency":`...), f.Urgency)
	b = strconv.AppendBool(append(b, `,"RealTime":`...), f.RealTime)
	b = strconv.AppendBool(append(b, `,"Bandwidth":`...), f.Bandwidth)
	b = strconv.AppendBool(append(b, `,"BankAffinity":`...), f.BankAffinity)
	b = strconv.AppendBool(append(b, `,"WriteBuffer":`...), f.WriteBuffer)
	b = strconv.AppendUint(append(b, `},"urgency_threshold":`...), p.UrgencyThreshold, 10)
	t := &p.DDR
	b = strconv.AppendUint(append(b, `,"ddr":{"TRCD":`...), uint64(t.TRCD), 10)
	b = strconv.AppendUint(append(b, `,"TRP":`...), uint64(t.TRP), 10)
	b = strconv.AppendUint(append(b, `,"TCL":`...), uint64(t.TCL), 10)
	b = strconv.AppendUint(append(b, `,"TWL":`...), uint64(t.TWL), 10)
	b = strconv.AppendUint(append(b, `,"TRAS":`...), uint64(t.TRAS), 10)
	b = strconv.AppendUint(append(b, `,"TRC":`...), uint64(t.TRC), 10)
	b = strconv.AppendUint(append(b, `,"TWR":`...), uint64(t.TWR), 10)
	b = strconv.AppendUint(append(b, `,"TRRD":`...), uint64(t.TRRD), 10)
	b = strconv.AppendUint(append(b, `,"TREFI":`...), uint64(t.TREFI), 10)
	b = strconv.AppendUint(append(b, `,"TRFC":`...), uint64(t.TRFC), 10)
	m := &p.AddrMap
	b = strconv.AppendUint(append(b, `},"addr_map":{"BeatBytesLog2":`...), uint64(m.BeatBytesLog2), 10)
	b = strconv.AppendUint(append(b, `,"ColBits":`...), uint64(m.ColBits), 10)
	b = strconv.AppendUint(append(b, `,"BankBits":`...), uint64(m.BankBits), 10)
	b = strconv.AppendUint(append(b, `,"RowBits":`...), uint64(m.RowBits), 10)
	// omitempty does not apply to a struct: json.Marshal always writes sram.
	r := &p.SRAM
	b = strconv.AppendBool(append(b, `},"sram":{"enabled":`...), r.Enabled)
	b = strconv.AppendUint(append(b, `,"base":`...), uint64(r.Base), 10)
	b = strconv.AppendUint(append(b, `,"size":`...), uint64(r.Size), 10)
	b = strconv.AppendUint(append(b, `,"wait_states":`...), r.WaitStates, 10)
	b = append(b, '}')
	if p.ClosedPage {
		b = append(b, `,"closed_page":true`...)
	}
	if p.MaxCycles != 0 {
		b = strconv.AppendUint(append(b, `,"max_cycles":`...), p.MaxCycles, 10)
	}
	return append(b, '}')
}

func appendMaster(b []byte, m *config.MasterCfg) []byte {
	b = jsonenc.AppendString(append(b, `{"name":"`...), m.Name)
	b = strconv.AppendBool(append(b, `","real_time":`...), m.RealTime)
	if m.QoSObjective != 0 {
		b = strconv.AppendUint(append(b, `,"qos_objective":`...), m.QoSObjective, 10)
	}
	if m.BandwidthQuota != 0 {
		b = jsonenc.AppendFloat(append(b, `,"bandwidth_quota":`...), m.BandwidthQuota)
	}
	return append(b, '}')
}

func appendGen(b []byte, g *GenSpec) []byte {
	b = jsonenc.AppendString(append(b, `{"kind":"`...), g.Kind)
	b = append(b, '"')
	if g.Name != "" {
		b = append(jsonenc.AppendString(append(b, `,"name":"`...), g.Name), '"')
	}
	b = omitUint(b, `,"base":`, uint64(g.Base))
	b = omitInt(b, `,"beats":`, int64(g.Beats))
	b = omitInt(b, `,"count":`, int64(g.Count))
	b = omitUint(b, `,"gap":`, g.Gap)
	b = omitInt(b, `,"write_every":`, int64(g.WriteEvery))
	b = omitUint(b, `,"wrap_bytes":`, uint64(g.WrapBytes))
	b = omitUint(b, `,"stride_bytes":`, uint64(g.StrideBytes))
	b = omitInt(b, `,"beat_bytes":`, int64(g.BeatBytes))
	b = omitInt(b, `,"seed":`, g.Seed)
	b = omitUint(b, `,"window_bytes":`, uint64(g.WindowBytes))
	b = omitInt(b, `,"max_beats":`, int64(g.MaxBeats))
	if g.WriteFrac != 0 {
		b = jsonenc.AppendFloat(append(b, `,"write_frac":`...), g.WriteFrac)
	}
	b = omitInt(b, `,"mean_gap":`, int64(g.MeanGap))
	b = omitInt(b, `,"burst_txns":`, int64(g.BurstTxns))
	b = omitUint(b, `,"idle_gap":`, g.IdleGap)
	b = omitUint(b, `,"period":`, g.Period)
	if g.Write {
		b = append(b, `,"write":true`...)
	}
	if len(g.Reqs) != 0 {
		b = appendList(append(b, `,"reqs":`...), g.Reqs, appendReq)
	}
	return append(b, '}')
}

// omitInt appends one omitempty integer member: nothing when v is zero.
func omitInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// omitUint is omitInt for an unsigned field.
func omitUint(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

func appendReq(b []byte, q *ReqSpec) []byte {
	b = append(b, '{')
	if q.At != 0 {
		b = append(strconv.AppendUint(append(b, `"at":`...), q.At, 10), ',')
	}
	b = strconv.AppendUint(append(b, `"addr":`...), uint64(q.Addr), 10)
	if q.Write {
		b = append(b, `,"write":true`...)
	}
	b = strconv.AppendInt(append(b, `,"beats":`...), int64(q.Beats), 10)
	return append(b, '}')
}
