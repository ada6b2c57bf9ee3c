// Package check implements the two kinds of assertion the paper inserts
// into its transaction-level models (§3.5):
//
//   - model assertions, for functional debugging of the model itself
//     ("this can never happen if the model is right"), and
//   - protocol properties, checked when the bus model is integrated
//     with master models and simulated for performance analysis.
//
// Model assertions panic by default — a failed one is a bug in this
// repository. Properties are collected and reported, because a property
// violation usually indicates a misconfigured platform, which the user
// wants listed, not crashed on.
package check

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// Errors collects static-configuration problems so a validator can
// report every defect in one pass instead of panicking on (or stopping
// at) the first. The zero value is ready to use.
type Errors struct {
	list []string
}

// Addf records one formatted problem.
func (e *Errors) Addf(format string, args ...any) {
	e.list = append(e.list, fmt.Sprintf(format, args...))
}

// Add records err if it is non-nil and returns whether it was.
func (e *Errors) Add(err error) bool {
	if err == nil {
		return false
	}
	e.list = append(e.list, err.Error())
	return true
}

// Empty reports whether no problems were recorded.
func (e *Errors) Empty() bool { return len(e.list) == 0 }

// Err returns nil when no problems were recorded, and otherwise an
// error whose message lists every problem (semicolon-separated, with a
// count when there is more than one).
func (e *Errors) Err() error {
	switch len(e.list) {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("%s", e.list[0])
	default:
		return fmt.Errorf("%d problems: %s", len(e.list), strings.Join(e.list, "; "))
	}
}

// Violation is one recorded property failure.
type Violation struct {
	// At is the simulation cycle of the failure.
	At sim.Cycle
	// Property names the violated property.
	Property string
	// Detail is the formatted failure message.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] property %s: %s", v.At, v.Property, v.Detail)
}

// Checker collects property violations and dispatches model assertions.
// The zero value is usable: assertions panic and properties are
// collected with the default cap.
type Checker struct {
	// PanicOnProperty promotes property violations to panics; useful in
	// tests that must not tolerate any violation.
	PanicOnProperty bool
	// Limit caps stored violations (0 means DefaultLimit); counting
	// continues past the cap.
	Limit int

	violations []Violation
	total      uint64
	asserts    uint64
	checksRun  uint64
}

// DefaultLimit is the default cap on stored violations.
const DefaultLimit = 100

// Assert is a model assertion: cond must hold if the model itself is
// correct. A failure panics with the formatted message, independent of
// collection mode.
func (c *Checker) Assert(cond bool, format string, args ...any) {
	if c != nil {
		c.asserts++
	}
	if !cond {
		panic("check: model assertion failed: " + fmt.Sprintf(format, args...))
	}
}

// AssertOK records a passing model assertion without any message
// formatting, so the format arguments of Assert are only materialized
// (and boxed) on the failing branch of a hot path.
func (c *Checker) AssertOK() {
	if c != nil {
		c.asserts++
	}
}

// PropertyOK records a passing property evaluation without any message
// formatting. Hot paths call it on the pass branch so the format
// arguments of Property are only materialized on failure.
func (c *Checker) PropertyOK() {
	if c != nil {
		c.checksRun++
	}
}

// Property records a protocol property check. It returns cond so call
// sites can branch on it. A nil Checker skips recording but still
// returns cond, letting models run uninstrumented.
func (c *Checker) Property(at sim.Cycle, name string, cond bool, format string, args ...any) bool {
	if c == nil {
		return cond
	}
	c.checksRun++
	if cond {
		return true
	}
	c.total++
	v := Violation{At: at, Property: name, Detail: fmt.Sprintf(format, args...)}
	if c.PanicOnProperty {
		panic("check: " + v.String())
	}
	limit := c.Limit
	if limit == 0 {
		limit = DefaultLimit
	}
	if len(c.violations) < limit {
		c.violations = append(c.violations, v)
	}
	return false
}

// Violations returns the stored violations (up to the cap).
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return c.violations
}

// Total returns the number of property violations, including those past
// the storage cap.
func (c *Checker) Total() uint64 {
	if c == nil {
		return 0
	}
	return c.total
}

// ChecksRun returns how many property evaluations ran.
func (c *Checker) ChecksRun() uint64 {
	if c == nil {
		return 0
	}
	return c.checksRun
}

// AssertsRun returns how many model assertions ran.
func (c *Checker) AssertsRun() uint64 {
	if c == nil {
		return 0
	}
	return c.asserts
}

// Report writes the violation list.
func (c *Checker) Report(w io.Writer) {
	if c == nil || c.total == 0 {
		fmt.Fprintln(w, "properties: no violations")
		return
	}
	fmt.Fprintf(w, "properties: %d violation(s), %d shown\n", c.total, len(c.violations))
	for _, v := range c.violations {
		fmt.Fprintf(w, "  %s\n", v)
	}
}
