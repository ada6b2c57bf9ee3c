package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/service"
	"repro/internal/spec"
)

// input is one generated POST /run request and the content hash its
// reply must carry. The spec itself is not kept: tens of thousands of
// them would be a live heap large enough to show in the measurements,
// and the checks that need one decode it back out of the body.
type input struct {
	hash string
	body []byte
}

// spec decodes the request's workload spec.
func (in *input) spec() (spec.Spec, error) {
	var req service.RunRequest
	if err := json.Unmarshal(in.body, &req); err != nil {
		return spec.Spec{}, err
	}
	return *req.Spec, nil
}

// countJitter is the width of the per-master transaction-count
// perturbation: a generated spec's counts lie in [base, base+63].
const countJitter = 64

// genInputs derives n distinct /run requests (model "tl") from rng:
// round-robin over the scenario library, with each master's count
// moved within [base, base+countJitter) and each random-kind master
// reseeded. countDiv > 1 divides the base counts first, for workloads
// that need many cheap results rather than realistic ones. The name
// carries the index so that scenarios without any random master still
// hash apart; distinctness is asserted, not assumed.
func genInputs(rng *rand.Rand, n, countDiv int) ([]input, error) {
	lib := spec.Scenarios()
	seen := make(map[string]struct{}, n)
	out := make([]input, 0, n)
	for i := 0; i < n; i++ {
		sp := lib[i%len(lib)].Clone()
		sp.Name = fmt.Sprintf("%s/v%d", sp.Name, i)
		for m := range sp.Masters {
			g := &sp.Masters[m]
			if g.Kind == spec.KindScript {
				continue
			}
			g.Count = g.Count/countDiv + rng.Intn(countJitter)
			if g.Kind == spec.KindRandom {
				g.Seed = rng.Int63()
			}
		}
		hash, err := sp.Hash()
		if err != nil {
			return nil, fmt.Errorf("generated spec %d: %w", i, err)
		}
		if _, dup := seen[hash]; dup {
			return nil, fmt.Errorf("generated spec %d repeats content hash %s", i, hash)
		}
		seen[hash] = struct{}{}
		body, err := json.Marshal(service.RunRequest{Spec: &sp, Model: "tl"})
		if err != nil {
			return nil, fmt.Errorf("encoding request %d: %w", i, err)
		}
		out = append(out, input{hash: hash, body: body})
	}
	return out, nil
}

// sweepBase is the library scenario every sweep_cluster grid starts from.
const sweepBase = "seq/write-heavy"

// genSweep builds one sweep request: the paper's ablation axes times
// nCounts consecutive count values. tag goes into the base spec's name,
// which is part of every variant's content hash, so two grids with
// different tags share no result while simulating identical work.
func genSweep(tag string, countBase, nCounts int) (service.SweepRequest, error) {
	base, err := spec.ByName(sweepBase)
	if err != nil {
		return service.SweepRequest{}, err
	}
	base = base.Clone()
	base.Name = sweepBase + "/" + tag
	counts := make([]any, nCounts)
	for i := range counts {
		counts[i] = countBase + i
	}
	return service.SweepRequest{
		Base:  &base,
		Model: "tl",
		Axes: []service.SweepAxis{
			{Param: "write_buffer_depth", Values: []any{0, 1, 2, 4, 8, 16}},
			{Param: "pipelining", Values: []any{true, false}},
			{Param: "bi_enabled", Values: []any{true, false}},
			{Param: "filters", Values: []any{"all", "rr-only"}},
			{Param: "count", Values: counts},
		},
	}, nil
}
