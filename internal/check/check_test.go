package check

import (
	"strings"
	"testing"
)

func TestAssertPassesQuietly(t *testing.T) {
	var c Checker
	c.Assert(true, "fine")
	if c.AssertsRun() != 1 {
		t.Fatalf("AssertsRun = %d", c.AssertsRun())
	}
	// The no-format pass branch counts the same, and tolerates running
	// uninstrumented.
	c.AssertOK()
	if c.AssertsRun() != 2 {
		t.Fatalf("AssertsRun after AssertOK = %d", c.AssertsRun())
	}
	(*Checker)(nil).AssertOK()
}

func TestAssertPanicsOnFailure(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if !strings.Contains(r.(string), "bad state 42") {
			t.Fatalf("panic message %q", r)
		}
	}()
	var c Checker
	c.Assert(false, "bad state %d", 42)
}

func TestNilCheckerAssertStillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil checker must still panic on model assertion")
		}
	}()
	var c *Checker
	c.Assert(false, "broken")
}

func TestPropertyCollects(t *testing.T) {
	var c Checker
	if c.Property(10, "grant-implies-request", false, "master %d", 3) {
		t.Fatal("failed property should return false")
	}
	if c.Property(11, "hready-legal", true, "") != true {
		t.Fatal("passing property should return true")
	}
	if c.Total() != 1 || c.ChecksRun() != 2 {
		t.Fatalf("total=%d run=%d", c.Total(), c.ChecksRun())
	}
	v := c.Violations()
	if len(v) != 1 || v[0].Property != "grant-implies-request" || v[0].At != 10 {
		t.Fatalf("violations %+v", v)
	}
	if !strings.Contains(v[0].String(), "master 3") {
		t.Fatalf("violation string %q", v[0])
	}
}

func TestPropertyCapRespected(t *testing.T) {
	c := Checker{Limit: 3}
	for i := 0; i < 10; i++ {
		c.Property(0, "p", false, "n=%d", i)
	}
	if len(c.Violations()) != 3 {
		t.Fatalf("stored %d, want 3", len(c.Violations()))
	}
	if c.Total() != 10 {
		t.Fatalf("Total = %d, want 10 (counting continues)", c.Total())
	}
}

func TestPropertyPanicMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic in PanicOnProperty mode")
		}
	}()
	c := Checker{PanicOnProperty: true}
	c.Property(0, "p", false, "boom")
}

func TestNilCheckerPropertyIsFree(t *testing.T) {
	var c *Checker
	if !c.Property(0, "p", true, "") {
		t.Fatal("nil checker should pass through cond")
	}
	if c.Property(0, "p", false, "") {
		t.Fatal("nil checker should pass through cond")
	}
	if c.Total() != 0 || c.ChecksRun() != 0 || c.Violations() != nil {
		t.Fatal("nil checker must report empty state")
	}
}

func TestReport(t *testing.T) {
	var b strings.Builder
	var clean Checker
	clean.Report(&b)
	if !strings.Contains(b.String(), "no violations") {
		t.Fatalf("clean report %q", b.String())
	}
	b.Reset()
	var c Checker
	c.Property(5, "one-hot-grant", false, "two grants")
	c.Report(&b)
	out := b.String()
	if !strings.Contains(out, "1 violation") || !strings.Contains(out, "one-hot-grant") {
		t.Fatalf("report %q", out)
	}
	var nilC *Checker
	b.Reset()
	nilC.Report(&b)
	if !strings.Contains(b.String(), "no violations") {
		t.Fatal("nil checker report")
	}
}
