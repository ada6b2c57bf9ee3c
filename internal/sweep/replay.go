package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// SampleEvery is the spacing of a Replay's sampled check: before a
// chunk is handed out, its first variant and every SampleEvery-th one
// after it are rebuilt and compared with the list.
const SampleEvery = 64

// Replay hands out a grid's deduplicated variants from a list that an
// earlier complete walk recorded — each survivor's index and content
// hash — instead of walking the grid again. A variant it hands out is
// named by its coordinates alone: Index, Labels, Params, the spec's
// name and the listed Hash are set, and nothing is built until Full
// builds it. Two checks guard the list: the sampled rebuild before each
// chunk, and the rebuild Full makes of any variant its caller could not
// serve by key. A rebuild that disagrees with the list marks it wrong,
// and Chunks then stops so that its caller can walk the rest.
type Replay struct {
	g     Grid
	text  axisText
	index []int // the listed variants' indices, ascending

	mu     sync.Mutex
	hashes []byte // sha256.Size bytes per listed variant
	wrong  bool   // some rebuild disagreed with the list
}

// Replay returns the replay of the grid's survivors marked in done,
// whose content hashes are listed in index order in hashes, sha256.Size
// raw bytes each. done must span the grid, and hashes must hold one
// digest per marked index.
func (g Grid) Replay(done *Bitset, hashes []byte) (*Replay, error) {
	total, err := g.Total()
	if err != nil {
		return nil, err
	}
	if done.Len() != total {
		return nil, fmt.Errorf("sweep: list of %d points for a grid of %d", done.Len(), total)
	}
	r := &Replay{g: g, text: g.text(), index: make([]int, 0, done.Count())}
	for n := 0; n < total; n++ {
		if done.Get(n) {
			r.index = append(r.index, n)
		}
	}
	if len(hashes) != sha256.Size*len(r.index) {
		return nil, fmt.Errorf("sweep: %d hash bytes for %d listed variants", len(hashes), len(r.index))
	}
	r.hashes = append([]byte(nil), hashes...)
	return r, nil
}

// Len returns the number of listed variants.
func (r *Replay) Len() int { return len(r.index) }

// Wrong reports whether a rebuild has disagreed with the list.
func (r *Replay) Wrong() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wrong
}

// Hashes returns the list as the rebuilds have corrected it: an entry
// a rebuild disagreed with holds the rebuilt digest, or zeros when the
// point no longer builds. Once Wrong, it therefore differs from the
// list the Replay was made from.
func (r *Replay) Hashes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.hashes...)
}

// Chunks hands the listed variants with Index > after to fn, on the
// calling goroutine, in chunks of at most size, in index order, as
// WalkChunks hands out a walk's survivors — and, like it, names the
// next chunk in a goroutine of its own while fn resolves one. Before a
// chunk goes to fn its sampled variants are rebuilt and compared with
// the list. Chunks stops before a chunk whose check fails, and after a
// chunk during which Full found the list wrong; last is then the Index
// of the last variant it handed out (after when none), past which a
// walk has to continue. err is ctx's error once ctx ends, or the error
// fn returned. The naming goroutine has exited by the time Chunks
// returns.
func (r *Replay) Chunks(ctx context.Context, after, size int, fn func(Chunk) error) (last int, err error) {
	last = after
	err = ahead(ctx, func(ctx context.Context, send func(Chunk) error) error {
		parts := make([]string, len(r.g.Axes)+1)
		for start := sort.SearchInts(r.index, after+1); start < len(r.index); start += size {
			if err := ctx.Err(); err != nil {
				return err
			}
			end := min(start+size, len(r.index))
			for p := start; p < end; p += SampleEvery {
				r.rebuild(p)
			}
			if r.Wrong() {
				return nil
			}
			if err := send(r.named(start, end, parts)); err != nil {
				return err
			}
		}
		return nil
	}, func(c Chunk) error {
		if err := fn(c); err != nil {
			return err
		}
		last = c.Variants[len(c.Variants)-1].Index
		if r.Wrong() {
			return errListWrong
		}
		return nil
	})
	if err == errListWrong {
		err = nil
	}
	return last, err
}

// errListWrong stops Chunks after a chunk during which the list was
// found wrong.
var errListWrong = errors.New("sweep: list found wrong")

// named names listed variants [start, end) by their coordinates, with
// their listed hashes. parts is scratch space for the names.
func (r *Replay) named(start, end int, parts []string) Chunk {
	c := Chunk{Variants: make([]Variant, end-start)}
	r.mu.Lock()
	defer r.mu.Unlock()
	for p := start; p < end; p++ {
		n := r.index[p]
		v := r.g.named(&r.text, n, r.g.coords(n), parts)
		v.Hash = hex.EncodeToString(r.hashes[sha256.Size*p : sha256.Size*(p+1)])
		v.listed, v.pos = r, p
		c.Variants[p-start] = v
	}
	return c
}

// rebuild builds listed variant p in full and compares its hash with
// the list's entry, correcting the entry and marking the list wrong
// when they differ.
func (r *Replay) rebuild(p int) (Variant, error) {
	v, err := r.g.point(&r.text, r.index[p])
	var digest [sha256.Size]byte // zeros: the point no longer builds
	if err == nil {
		_, _ = hex.Decode(digest[:], []byte(v.Hash))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if entry := r.hashes[sha256.Size*p : sha256.Size*(p+1)]; string(entry) != string(digest[:]) {
		copy(entry, digest[:])
		r.wrong = true
	}
	return v, err
}

// Full returns v with its spec. A variant a walk built is returned as
// it is. A variant a Replay named is built by Grid.Point, and its hash
// is compared with the listed one: a mismatch, or a point that no
// longer builds, marks the list wrong. The built point is returned
// either way — with its own hash, or partial with the error Walk
// reports for it — so that a row made from it is the row a walk makes.
func (v Variant) Full() (Variant, error) {
	if v.listed == nil {
		return v, nil
	}
	return v.listed.rebuild(v.pos)
}
