package arb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bi"
	"repro/internal/qos"
	"repro/internal/sim"
)

// refArbiter is the §3.3 policy transcribed as plain functions, in the
// package-doc order, with "only permission may veto". It has no status
// memo, no static QoS flags and no single-candidate fast path, and it
// asks the provider on every use. Pipeline.Select must agree with it on
// every winner, every veto and every Stats count.
type refArbiter struct {
	e     Enabled
	stats Stats
}

func newRefArbiter(e Enabled) *refArbiter {
	return &refArbiter{e: e, stats: Stats{Decisive: map[string]uint64{}}}
}

func (r *refArbiter) Select(c *Context) (int, bool) {
	if len(c.Reqs) == 0 {
		return 0, false
	}
	r.stats.Rounds++
	stages := []struct {
		on   bool
		name string
		f    func(*Context, []int) []int
	}{
		{r.e.Permission, "permission", refPermission},
		{r.e.Urgency, "urgency", refUrgency},
		{r.e.RealTime, "realtime", refRealTime},
		{r.e.Bandwidth, "bandwidth", refBandwidth},
		{r.e.BankAffinity, "bankaffinity", refBankAffinity},
		{r.e.WriteBuffer, "writebuffer", refWriteBuffer},
		{true, "roundrobin", refRoundRobin},
	}
	var cands []int
	for i := range c.Reqs {
		cands = append(cands, i)
	}
	for _, s := range stages {
		if !s.on {
			continue
		}
		next := s.f(c, cands)
		if len(next) == 0 {
			if s.name == "permission" {
				r.stats.Vetoed++
				return 0, false
			}
			continue // any other filter that would empty the set is ignored
		}
		if len(next) < len(cands) {
			r.stats.Decisive[s.name]++
		}
		cands = next
	}
	r.stats.Grants++
	return cands[0], true
}

// keep returns, in a fresh slice, the candidates for which pred holds.
func keep(cands []int, pred func(i int) bool) []int {
	var out []int
	for _, i := range cands {
		if pred(i) {
			out = append(out, i)
		}
	}
	return out
}

// orAll returns out, or cands when out is empty.
func orAll(cands, out []int) []int {
	if len(out) == 0 {
		return cands
	}
	return out
}

func refReg(c *Context, m int) qos.Reg {
	if m < len(c.Regs) {
		return c.Regs[m]
	}
	return qos.Reg{}
}

func refStatus(c *Context, i int) bi.BankStatus {
	if c.Provider == nil {
		return bi.BankStatus{Permit: true}
	}
	return c.Provider.Status(c.Now, c.Reqs[i].Addr)
}

func refPermission(c *Context, cands []int) []int {
	return keep(cands, func(i int) bool { return refStatus(c, i).Permit })
}

func refUrgency(c *Context, cands []int) []int {
	slack := func(i int) sim.Cycle {
		r := c.Reqs[i]
		return refReg(c, r.Master).Slack(c.Now, r.Since)
	}
	urgent := keep(cands, func(i int) bool { return slack(i) <= c.UrgencyThreshold })
	if len(urgent) == 0 {
		return cands
	}
	least := slack(urgent[0])
	for _, i := range urgent {
		least = min(least, slack(i))
	}
	return keep(urgent, func(i int) bool { return slack(i) == least })
}

func refRealTime(c *Context, cands []int) []int {
	return orAll(cands, keep(cands, func(i int) bool {
		r := c.Reqs[i]
		return !r.IsWriteBuf && refReg(c, r.Master).Class == qos.RT
	}))
}

func refBandwidth(c *Context, cands []int) []int {
	if c.Served == nil || c.TotalBeats == 0 {
		return cands
	}
	return orAll(cands, keep(cands, func(i int) bool {
		m := c.Reqs[i].Master
		var served uint64
		if m < len(c.Served) {
			served = c.Served[m]
		}
		quota := refReg(c, m).Quota
		return quota != 0 && float64(served)/float64(c.TotalBeats) < quota
	}))
}

func refBankAffinity(c *Context, cands []int) []int {
	if open := keep(cands, func(i int) bool { return refStatus(c, i).RowOpen }); len(open) > 0 {
		return open
	}
	return orAll(cands, keep(cands, func(i int) bool { return refStatus(c, i).BankIdle }))
}

func refWriteBuffer(c *Context, cands []int) []int {
	if c.WBCap == 0 {
		return cands
	}
	wb := keep(cands, func(i int) bool { return c.Reqs[i].IsWriteBuf })
	others := keep(cands, func(i int) bool { return !c.Reqs[i].IsWriteBuf })
	switch {
	case len(wb) == 0:
		return cands
	case 4*c.WBUsed >= 3*c.WBCap: // nearly full: the drain goes first
		return wb
	case 4*c.WBUsed <= c.WBCap: // nearly empty: demand goes first
		return orAll(cands, others)
	}
	return cands
}

// refRoundRobin grants the lowest master above LastGrant, wrapping to
// the lowest master overall; the first listed wins a tie.
func refRoundRobin(c *Context, cands []int) []int {
	lowest := func(set []int) []int {
		best := set[0]
		for _, i := range set {
			if c.Reqs[i].Master < c.Reqs[best].Master {
				best = i
			}
		}
		return []int{best}
	}
	if above := keep(cands, func(i int) bool { return c.Reqs[i].Master > c.LastGrant }); len(above) > 0 {
		return lowest(above)
	}
	return lowest(cands)
}

// refCase is one arbitration history: a pipeline configuration and a
// run of rounds over one persistent context, as both models drive it.
type refCase struct {
	name   string
	e      Enabled
	regs   []qos.Reg
	static bool // call PrecomputeQoS, as both models do
	prov   *bi.Provider
	wbCap  int
	thresh sim.Cycle
	rounds []refRound
}

// followWinner as a round's lastGrant means "the master granted by the
// previous granting round", which is how both models drive LastGrant.
const followWinner = -2

type refRound struct {
	now       sim.Cycle
	reqs      []Request
	lastGrant int
	wbUsed    int
	served    []uint64
	total     uint64
}

// scripted returns an enabled BI provider answering from fn.
func scripted(fn func(now sim.Cycle, addr uint32) bi.BankStatus) *bi.Provider {
	return &bi.Provider{
		Link:     bi.NewLink(0),
		PermitFn: func(now sim.Cycle, addr uint32) bool { return fn(now, addr).Permit },
		InfoFn: func(now sim.Cycle, addr uint32) (bool, bool) {
			st := fn(now, addr)
			return st.BankIdle, st.RowOpen
		},
	}
}

// checkReference runs c through a Pipeline and the reference side by
// side and reports the first round where they differ.
func checkReference(c refCase) error {
	p := DefaultWith(c.e)
	ref := newRefArbiter(c.e)
	ctx := &Context{Regs: c.regs, Provider: c.prov, WBCap: c.wbCap, UrgencyThreshold: c.thresh}
	if c.static {
		ctx.PrecomputeQoS()
	}
	last := -1
	for k, r := range c.rounds {
		ctx.Now, ctx.Reqs, ctx.WBUsed = r.now, r.reqs, r.wbUsed
		ctx.Served, ctx.TotalBeats = r.served, r.total
		ctx.LastGrant = r.lastGrant
		if r.lastGrant == followWinner {
			ctx.LastGrant = last
		}
		w, ok := p.Select(ctx)
		rw, rok := ref.Select(ctx)
		if ok != rok || (ok && w != rw) {
			return fmt.Errorf("round %d (cycle %d, %d reqs): Select = %d/%v, reference %d/%v",
				k, r.now, len(r.reqs), w, ok, rw, rok)
		}
		if got := p.Stats(); !reflect.DeepEqual(got, ref.stats) {
			return fmt.Errorf("round %d: Stats = %+v, reference %+v", k, got, ref.stats)
		}
		if ok {
			last = r.reqs[w].Master
		}
	}
	return nil
}

// byteSrc reads a fuzz input as a stream of choices; an exhausted
// stream reads as zeros.
type byteSrc []byte

func (s *byteSrc) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *byteSrc) intn(n int) int { return int(s.byte()) % n }

// genCase decodes an arbitration history from data. Masters, addresses
// and occupancies are drawn from small ranges so ties, shared banks and
// band edges are common. The provider's answers are a pure function of
// (cycle, address) — the memo's precondition — and change from cycle to
// cycle.
func genCase(data []byte) refCase {
	s := byteSrc(data)
	bits := s.byte()
	c := refCase{
		e: Enabled{
			Permission: bits&1 != 0, Urgency: bits&2 != 0, RealTime: bits&4 != 0,
			Bandwidth: bits&8 != 0, BankAffinity: bits&16 != 0, WriteBuffer: bits&32 != 0,
		},
		static: bits&64 == 0,
		wbCap:  s.intn(9),
		thresh: sim.Cycle(s.intn(24)),
	}
	nMasters := 1 + s.intn(6) // the write-buffer pseudo-master is index nMasters
	if s.intn(4) != 0 {
		c.regs = make([]qos.Reg, s.intn(nMasters+2))
		quotas := []float64{0, 0, 0.1, 0.25, 0.5, 0.9}
		for m := range c.regs {
			b := s.byte()
			if b&1 != 0 {
				c.regs[m].Class = qos.RT
			}
			if b&6 != 0 {
				c.regs[m].Objective = sim.Cycle(1 + s.intn(48))
			}
			c.regs[m].Quota = quotas[int(b>>3)%len(quotas)]
		}
	}
	switch s.intn(4) {
	case 0: // no BI wiring at all
	case 1:
		c.prov = scripted(func(sim.Cycle, uint32) bi.BankStatus { return bi.BankStatus{RowOpen: true} })
		c.prov.Link.Enabled = false // BI off: permissive and information-free
	default:
		script := []byte{s.byte(), s.byte(), s.byte(), s.byte(), s.byte(), s.byte(), s.byte()}
		c.prov = scripted(func(now sim.Cycle, addr uint32) bi.BankStatus {
			b := script[(uint64(now)*3+uint64(addr>>8))%uint64(len(script))]
			return bi.BankStatus{Permit: b&3 != 0, BankIdle: b&4 != 0, RowOpen: b&8 != 0}
		})
	}
	now := sim.Cycle(64)
	for n := 1 + s.intn(12); n > 0; n-- {
		now += sim.Cycle(s.intn(3)) // 0: a second round in the same cycle
		r := refRound{now: now, lastGrant: followWinner}
		present := s.byte()
		for m := 0; m <= nMasters; m++ {
			if present&(1<<m) == 0 {
				continue
			}
			r.reqs = append(r.reqs, Request{
				Master:     m,
				Addr:       uint32(s.intn(5)) << 8,
				Since:      now - sim.Cycle(s.intn(60)),
				IsWriteBuf: m == nMasters,
			})
		}
		if b := s.byte(); b&1 != 0 {
			r.lastGrant = int(b>>1)%(nMasters+2) - 1
		}
		if c.wbCap > 0 {
			r.wbUsed = s.intn(c.wbCap + 1)
		}
		if s.intn(4) != 0 {
			r.served = make([]uint64, s.intn(nMasters+2))
			for m := range r.served {
				r.served[m] = uint64(s.intn(40))
			}
			r.total = uint64(s.intn(100))
		}
		c.rounds = append(c.rounds, r)
	}
	return c
}

// oneRound is a single-round history under e.
func oneRound(name string, e Enabled, regs []qos.Reg, prov *bi.Provider, r refRound) refCase {
	return refCase{name: name, e: e, regs: regs, static: true, prov: prov, thresh: 8, rounds: []refRound{r}}
}

// referenceTable is the hand-written part of the reference check: one
// history per optimisation the reference omits, plus each filter's
// decisive case.
func referenceTable() []refCase {
	all := AllEnabled()
	blockedAt := func(bad uint32) *bi.Provider {
		return scripted(func(_ sim.Cycle, addr uint32) bi.BankStatus {
			return bi.BankStatus{Permit: addr != bad, BankIdle: addr == 0x100}
		})
	}
	// Addr 0x200's row is open on even cycles, its bank idle on odd.
	flipping := scripted(func(now sim.Cycle, addr uint32) bi.BankStatus {
		even := now%2 == 0
		return bi.BankStatus{Permit: true, RowOpen: addr == 0x200 && even, BankIdle: addr == 0x100 || (addr == 0x200 && !even)}
	})
	three := []Request{{Master: 0, Addr: 0x200}, {Master: 1, Addr: 0x100}, {Master: 2, Addr: 0x300}}
	cases := []refCase{
		oneRound("lone request vetoed", all, nil, blockedAt(0x10),
			refRound{now: 100, reqs: []Request{{Master: 0, Addr: 0x10}}, lastGrant: -1}),
		oneRound("permission drops only the blocked", all, nil, blockedAt(0x10),
			refRound{now: 100, reqs: []Request{{Master: 0, Addr: 0x10}, {Master: 1, Addr: 0x40}, {Master: 2, Addr: 0x100}}, lastGrant: -1}),
		oneRound("urgency beats realtime", all,
			[]qos.Reg{{Class: qos.NRT, Objective: 105}, {Class: qos.RT, Objective: 10000}}, nil,
			refRound{now: 100, reqs: []Request{{Master: 0, Since: 0}, {Master: 1, Since: 90}}, lastGrant: -1}),
		oneRound("bandwidth under a quota", all, []qos.Reg{{Quota: 0.5}, {Quota: 0.5}, {}}, nil,
			refRound{now: 100, reqs: []Request{{Master: 0}, {Master: 1}, {Master: 2}}, lastGrant: -1,
				served: []uint64{90, 10, 0}, total: 100}),
		{name: "write buffer boosted when nearly full", e: Enabled{WriteBuffer: true}, wbCap: 8, rounds: []refRound{
			{now: 100, reqs: []Request{{Master: 0}, {Master: 2, IsWriteBuf: true}}, lastGrant: -1, wbUsed: 7},
		}},
		{name: "status memo is per cycle", e: all, static: true, prov: flipping, thresh: 8, rounds: []refRound{
			{now: 100, reqs: three, lastGrant: -1},
			{now: 101, reqs: three, lastGrant: -1},
			{now: 101, reqs: three[1:], lastGrant: -1}, // a second round in the cycle, shifted indices
			{now: 102, reqs: three, lastGrant: -1},
		}},
		{name: "round-robin rotates from LastGrant", e: Enabled{}, thresh: 8, rounds: []refRound{
			{now: 1, reqs: three, lastGrant: -1},
			{now: 2, reqs: three, lastGrant: -1},
			{now: 3, reqs: three, lastGrant: 2},
			{now: 4, reqs: three, lastGrant: followWinner},
		}},
	}
	// Every Enabled subset over one history that makes each filter bite.
	regs := []qos.Reg{{Class: qos.RT, Objective: 30}, {Quota: 0.4}, {Objective: 12}}
	mixed := []Request{{Master: 0, Addr: 0x300, Since: 90}, {Master: 1, Addr: 0x200, Since: 60},
		{Master: 2, Addr: 0x100, Since: 95}, {Master: 3, Addr: 0x200, Since: 70, IsWriteBuf: true}}
	for bits := 0; bits < 64; bits++ {
		e := Enabled{bits&1 != 0, bits&2 != 0, bits&4 != 0, bits&8 != 0, bits&16 != 0, bits&32 != 0}
		c := refCase{name: fmt.Sprintf("subset %06b", bits), e: e, regs: regs, static: true, prov: flipping, wbCap: 4, thresh: 8}
		for k := 0; k < 4; k++ {
			c.rounds = append(c.rounds, refRound{now: sim.Cycle(100 + 5*k), reqs: mixed[k%2:], lastGrant: followWinner,
				wbUsed: k, served: []uint64{5, 10, 30}, total: 50})
		}
		cases = append(cases, c)
	}
	return cases
}

// TestPipelineMatchesReference holds Pipeline.Select to the reference
// on the hand-written table and on a fixed batch of generated
// histories, so each optimisation is checked by plain go test.
func TestPipelineMatchesReference(t *testing.T) {
	for _, c := range referenceTable() {
		if err := checkReference(c); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 160)
	for n := 0; n < 3000; n++ {
		rng.Read(data)
		if err := checkReference(genCase(data)); err != nil {
			t.Fatalf("generated history %d: %v", n, err)
		}
	}
}

func FuzzPipelineReference(f *testing.F) {
	f.Add([]byte{0x3f, 8, 8, 3, 1, 0x07, 0x0f, 0x15, 2, 1, 2, 3, 4, 5, 6, 7, 8, 0xff})
	f.Add([]byte{0x7f, 4, 20, 5, 2, 0x0b, 0x2f, 0x11, 0x3a, 3, 9, 0x01, 0x1e, 0xd3, 0x44, 0x90, 0x4c})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		data := make([]byte, 160)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkReference(genCase(data)); err != nil {
			t.Fatal(err)
		}
	})
}
