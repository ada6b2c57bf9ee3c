package arb

import (
	"repro/internal/qos"
	"repro/internal/sim"
)

// filters is the §3.3 pipeline in its fixed order. Each stage returns
// the surviving subset of cands (indices into ctx.Reqs) in order,
// reusing cands' storage, and must not mutate the context. The names
// are the keys of Stats.Decisive.
var filters = [...]struct {
	name  string
	apply func(ctx *Context, cands []int) []int
}{
	{"permission", permission},
	{"urgency", urgency},
	{"realtime", realTime},
	{"bandwidth", bandwidth},
	{"bankaffinity", bankAffinity},
	{"writebuffer", writeBuffer},
	{"roundrobin", roundRobin},
}

// permission drops candidates whose target the DDRC cannot currently
// accept (refresh window), as reported over BI. It is the only filter
// allowed to veto the whole round.
func permission(ctx *Context, cands []int) []int {
	out := cands[:0]
	for _, i := range cands {
		if ctx.permitFor(i) {
			out = append(out, i)
		}
	}
	return out
}

// urgency keeps only the requests whose QoS slack has fallen to or
// below the urgency threshold, and among those the minimum-slack ones.
// When nothing is urgent it passes the set through unchanged. This is
// the filter that converts the QoS objective registers into actual
// grant decisions before a deadline is lost.
func urgency(ctx *Context, cands []int) []int {
	if ctx.qosStatic && !ctx.anyObjective {
		return cands // no master has an objective: nothing can be urgent
	}
	minSlack := sim.CycleMax
	urgent := false
	for _, i := range cands {
		r := ctx.Reqs[i]
		slack := ctx.qosReg(r.Master).Slack(ctx.Now, r.Since)
		if slack <= ctx.UrgencyThreshold {
			urgent = true
			if slack < minSlack {
				minSlack = slack
			}
		}
	}
	if !urgent {
		return cands
	}
	out := cands[:0]
	for _, i := range cands {
		r := ctx.Reqs[i]
		if ctx.qosReg(r.Master).Slack(ctx.Now, r.Since) == minSlack {
			out = append(out, i)
		}
	}
	return out
}

// realTime keeps RT-class masters when at least one is present,
// otherwise passes through. The write-buffer pseudo-master is treated
// by its own filter, not here.
func realTime(ctx *Context, cands []int) []int {
	if ctx.qosStatic && !ctx.anyRT {
		return cands // no RT master registered: provably pass-through
	}
	out := cands[:0]
	for _, i := range cands {
		r := ctx.Reqs[i]
		if !r.IsWriteBuf && ctx.qosReg(r.Master).Class == qos.RT {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		return cands
	}
	return out
}

// bandwidth keeps masters that are below their reserved bandwidth
// share within the accounting window; when every candidate has met its
// reservation (or none has one) it passes through.
func bandwidth(ctx *Context, cands []int) []int {
	if ctx.Served == nil || ctx.TotalBeats == 0 {
		return cands
	}
	if ctx.qosStatic && !ctx.anyQuota {
		return cands // no reservations: provably pass-through
	}
	out := cands[:0]
	for _, i := range cands {
		r := ctx.Reqs[i]
		quota := ctx.qosReg(r.Master).Quota
		if quota == 0 {
			continue
		}
		share := float64(ctx.served(r.Master)) / float64(ctx.TotalBeats)
		if share < quota {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		return cands
	}
	return out
}

// bankAffinity prefers requests that hit an open DDR row, then requests
// targeting an idle bank, using the BI idle-bank report. This is the
// arbitration half of the bank-interleaving scheme: it steers grants so
// the controller can stream data back-to-back.
func bankAffinity(ctx *Context, cands []int) []int {
	if ctx.Provider == nil {
		return cands
	}
	anyHit, anyIdle := false, false
	for _, i := range cands {
		st := ctx.statusFor(i)
		if st.RowOpen {
			anyHit = true
			break
		}
		if st.BankIdle {
			anyIdle = true
		}
	}
	if !anyHit && !anyIdle {
		return cands
	}
	out := cands[:0]
	for _, i := range cands {
		st := ctx.statusFor(i)
		if (anyHit && st.RowOpen) || (!anyHit && st.BankIdle) {
			out = append(out, i)
		}
	}
	return out
}

// writeBuffer manages the write-buffer pseudo-master: when the buffer
// is nearly full its drain request is boosted above everything else (it
// must not overflow, or masters stall); when it is nearly empty the
// drain is suppressed so demand traffic goes first. In the middle band
// the drain competes like a normal master.
func writeBuffer(ctx *Context, cands []int) []int {
	if ctx.WBCap == 0 {
		return cands
	}
	nWB := 0
	for _, i := range cands {
		if ctx.Reqs[i].IsWriteBuf {
			nWB++
		}
	}
	if nWB == 0 {
		return cands
	}
	keepWB := false
	switch {
	case ctx.WBUsed*4 >= ctx.WBCap*3: // >= 3/4 full: drain now
		keepWB = true
	case ctx.WBUsed*4 <= ctx.WBCap && nWB < len(cands): // <= 1/4: defer
		keepWB = false
	default:
		return cands
	}
	out := cands[:0]
	for _, i := range cands {
		if ctx.Reqs[i].IsWriteBuf == keepWB {
			out = append(out, i)
		}
	}
	return out
}

// roundRobin picks exactly one winner, rotating fairly from the last
// granted master. It is always the final stage.
func roundRobin(ctx *Context, cands []int) []int {
	best := -1
	bestKey := 1 << 30
	for _, i := range cands {
		m := ctx.Reqs[i].Master
		// Distance of m after LastGrant in circular order; the smallest
		// positive distance wins, so ownership rotates.
		key := m - ctx.LastGrant
		if key <= 0 {
			key += 1 << 20
		}
		if key < bestKey {
			bestKey = key
			best = i
		}
	}
	return append(cands[:0], best)
}
