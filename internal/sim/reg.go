package sim

// Reg is a registered (clocked) value with the two-phase discipline the
// Kernel expects: reads during Eval observe the value committed at the
// end of the previous cycle; writes during Eval become visible only
// after Commit runs in the Update phase.
//
// Components own their registers and must call Commit from Update (or
// add them to a RegBank and commit that). A banked register is only
// ever Set by the component whose bank owns it: the Set enqueues the
// register on that bank, so the pending value commits in the owner's
// Update and a sleeping owner — which by the Sleeper contract drives
// nothing — leaves nothing behind uncommitted.
type Reg[T any] struct {
	cur, next T
	// dirty marks a pending Set; on a banked register it is also the
	// membership bit of the bank's pending list.
	dirty  bool
	bank   *RegBank
	self   banked // the value Add was handed, which is what the bank commits
	wakers []*Waker
}

// NewReg returns a register initialized to v in both phases.
func NewReg[T any](v T) *Reg[T] {
	return &Reg[T]{cur: v, next: v}
}

// Get returns the currently visible (committed) value.
func (r *Reg[T]) Get() T { return r.cur }

// Set schedules v to become visible after the next Commit. The first
// Set since the last commit puts a banked register on its bank's
// pending list, which Add sized so that this append does not allocate.
func (r *Reg[T]) Set(v T) {
	r.next = v
	if !r.dirty {
		r.dirty = true
		if r.bank != nil {
			r.bank.pending = append(r.bank.pending, r.self)
		}
	}
}

// Commit makes the pending value visible. Safe to call when no Set
// happened (it is then a no-op). Committing a pending Set wakes every
// watcher registered via Notify, which is how clock-gated components
// resume when an input register changes.
func (r *Reg[T]) Commit() {
	if r.dirty {
		r.cur = r.next
		r.dirty = false
		for _, w := range r.wakers {
			w.Wake()
		}
	}
}

// Notify registers a wake handle to fire whenever a pending Set commits
// on this register. Used to wire clock-gated components to the inputs
// that must wake them; see Kernel.Waker.
func (r *Reg[T]) Notify(w *Waker) {
	r.wakers = append(r.wakers, w)
}

// Force immediately sets both phases to v, bypassing the two-phase
// discipline. Intended for reset logic only. A pending Set is dropped;
// the entry it left on a bank's pending list commits as a no-op.
func (r *Reg[T]) Force(v T) {
	r.cur = v
	r.next = v
	r.dirty = false
}

// bind implements banked.
func (r *Reg[T]) bind(b *RegBank, self banked) bool {
	if r.bank != nil {
		panic("sim: register added to a second RegBank")
	}
	r.bank, r.self = b, self
	return r.dirty
}

// banked is what a RegBank holds: a Reg, or a type embedding one.
type banked interface {
	Commit()
	// bind attaches the register to its bank and reports whether a Set
	// is already pending. self is the value the bank was handed, which
	// differs from the receiver when a Reg is embedded.
	bind(b *RegBank, self banked) (dirty bool)
}

// RegBank groups a component's registers so its Update commits them
// with one call. Commit is change-driven: the bank keeps a list of the
// registers Set since the last CommitAll, so a cycle costs the
// registers that changed, not the registers that exist. A RegBank must
// not be copied once a register has been added.
type RegBank struct {
	size    int
	pending []banked
}

// Add puts r under the bank; a Set already pending on r commits with
// the next CommitAll. A register belongs to at most one bank: adding
// it to a second one (or twice) is a programming error and panics.
func (b *RegBank) Add(r banked) {
	dirty := r.bind(b, r)
	// One slot per register covers every Set between two commits, so
	// the append in Set stays within capacity.
	if b.size++; cap(b.pending) < b.size {
		b.pending = append(make([]banked, 0, 2*b.size), b.pending...)
	}
	if dirty {
		b.pending = append(b.pending, r)
	}
}

// CommitAll commits every register Set since the last CommitAll, in
// Set order, and empties the pending list.
func (b *RegBank) CommitAll() {
	for _, r := range b.pending {
		r.Commit()
	}
	b.pending = b.pending[:0]
}
