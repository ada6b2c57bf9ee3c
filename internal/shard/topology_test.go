package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// testHashes returns n distinct well-formed content hashes.
func testHashes(n int) []string {
	out := make([]string, n)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprintf("spec-%d", i)))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// ids returns the boot-time stable ID set 0..n-1 — what a cluster of n
// backends that has never resized routes against.
func ids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestOwnerIDIndependentOfMemberOrder(t *testing.T) {
	ids := []int{4, 0, 7, 2, 9}
	rng := rand.New(rand.NewSource(1))
	for _, h := range testHashes(100) {
		want := OwnerID(h, ids)
		shuffled := append([]int(nil), ids...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := OwnerID(h, shuffled); got != want {
			t.Fatalf("owner depends on member order: %d vs %d", got, want)
		}
	}
}

func TestRankIDsIsAPermutationLedByOwner(t *testing.T) {
	ids := []int{3, 1, 4, 11, 6}
	for _, h := range testHashes(100) {
		rank := RankIDs(h, ids)
		if len(rank) != len(ids) {
			t.Fatalf("rank length %d, want %d", len(rank), len(ids))
		}
		if rank[0] != OwnerID(h, ids) {
			t.Fatalf("rank[0] = %d, owner = %d", rank[0], OwnerID(h, ids))
		}
		seen := map[int]bool{}
		for _, id := range rank {
			seen[id] = true
		}
		for _, id := range ids {
			if !seen[id] {
				t.Fatalf("rank %v misses member %d", rank, id)
			}
		}
	}
}

func TestDrainMovesOnlyTheDrainedMembersKeys(t *testing.T) {
	// The property the whole drain design rests on: removing one
	// member reassigns exactly the keys it owned — each to its
	// next-ranked surviving member — and nobody else moves.
	all := []int{0, 1, 2, 3}
	const drained = 2
	var remaining []int
	for _, id := range all {
		if id != drained {
			remaining = append(remaining, id)
		}
	}
	moved := 0
	for _, h := range testHashes(2000) {
		before := OwnerID(h, all)
		after := OwnerID(h, remaining)
		if before != drained {
			if after != before {
				t.Fatalf("hash %s moved %d->%d though %d was not drained", h[:8], before, after, drained)
			}
			continue
		}
		moved++
		// The new owner is the drained key's next-ranked survivor.
		rank := RankIDs(h, all)
		if want := rank[1]; after != want {
			t.Fatalf("hash %s reassigned to %d, want next-ranked %d", h[:8], after, want)
		}
	}
	if moved == 0 {
		t.Fatal("degenerate test: drained member owned nothing")
	}
}

func TestGrowMovesKeysOnlyToTheNewMember(t *testing.T) {
	ids := []int{0, 1, 3} // a cluster that already drained shard 2
	grown := append(append([]int(nil), ids...), 4)
	for _, h := range testHashes(2000) {
		before := OwnerID(h, ids)
		after := OwnerID(h, grown)
		if after != before && after != 4 {
			t.Fatalf("hash %s moved %d->%d on grow; only moves to the new member are allowed", h[:8], before, after)
		}
	}
}

func TestTopologyIDs(t *testing.T) {
	top := Topology{Epoch: 3, Members: []Member{{ID: 0, Addr: "a"}, {ID: 5, Addr: "b"}}}
	if got := top.IDs(); !reflect.DeepEqual(got, []int{0, 5}) {
		t.Fatalf("IDs() = %v", got)
	}
	if OwnerID("deadbeef", nil) != -1 {
		t.Fatal("empty topology must own nothing")
	}
}
