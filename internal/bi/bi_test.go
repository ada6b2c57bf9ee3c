package bi

import (
	"testing"

	"repro/internal/sim"
)

func TestLinkDeliversAfterLatency(t *testing.T) {
	l := NewLink(3)
	l.Send(10, NextTxn{Master: 1, Addr: 0x40})
	if got, ok := l.Pop(12); ok {
		t.Fatalf("delivered %v before latency elapsed", got)
	}
	got, ok := l.Pop(13)
	if !ok || got.Msg.Master != 1 || got.Msg.Addr != 0x40 || got.At != 13 {
		t.Fatalf("Pop = %v, %v", got, ok)
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after delivery", l.Pending())
	}
}

// TestLinkPreservesOrder: Pop yields the due messages oldest first,
// each with its own delivery cycle, and Pending counts from the head.
func TestLinkPreservesOrder(t *testing.T) {
	l := NewLink(2)
	for i := 0; i < 5; i++ {
		l.Send(sim.Cycle(i), NextTxn{Master: i})
	}
	for i := 0; i < 5; i++ {
		if l.Pending() != 5-i {
			t.Fatalf("Pending = %d before pop %d", l.Pending(), i)
		}
		got, ok := l.Pop(10)
		if !ok || got.Msg.Master != i || got.At != sim.Cycle(i)+2 {
			t.Fatalf("pop %d = %+v, %v", i, got, ok)
		}
	}
	if _, ok := l.Pop(10); ok || l.Pending() != 0 {
		t.Fatalf("drained link still delivers (pending %d)", l.Pending())
	}
}

func TestLinkPartialDelivery(t *testing.T) {
	l := NewLink(0)
	l.Send(5, NextTxn{Master: 0})
	l.Send(10, NextTxn{Master: 1})
	if got, ok := l.Pop(7); !ok || got.Msg.Master != 0 {
		t.Fatalf("partial delivery = %v, %v", got, ok)
	}
	if got, ok := l.Pop(7); ok {
		t.Fatalf("delivered %v before it was due", got)
	}
	if l.Pending() != 1 {
		t.Fatalf("Pending = %d", l.Pending())
	}
}

// TestLinkQueueDoesNotGrow: the popped prefix is reclaimed, so a link
// in steady state — drained every time, or never holding fewer than
// two messages — keeps the backing array its first few sends gave it.
func TestLinkQueueDoesNotGrow(t *testing.T) {
	for _, backlog := range []int{0, 2} {
		l := NewLink(1)
		for i := 0; i < backlog; i++ {
			l.Send(0, NextTxn{})
		}
		var settled int
		for i := 0; i < 10_000; i++ {
			l.Send(sim.Cycle(i), NextTxn{Master: i})
			if _, ok := l.Pop(sim.Cycle(i) + 1); !ok {
				t.Fatalf("backlog %d: pair %d delivered nothing", backlog, i)
			}
			if i == 8 {
				settled = cap(l.q)
			}
		}
		if cap(l.q) != settled || settled > 8 || l.Pending() != backlog {
			t.Fatalf("backlog %d: cap %d after 10k pairs, %d after 9; pending %d", backlog, cap(l.q), settled, l.Pending())
		}
	}
}

func TestDisabledLinkDrops(t *testing.T) {
	l := NewLink(0)
	l.Enabled = false
	l.Send(0, NextTxn{})
	if l.Pending() != 0 || l.Sent() != 0 || l.Dropped() != 1 {
		t.Fatalf("disabled link: pending=%d sent=%d dropped=%d", l.Pending(), l.Sent(), l.Dropped())
	}
}

func TestProviderStatus(t *testing.T) {
	l := NewLink(0)
	p := &Provider{
		Link:     l,
		PermitFn: func(now sim.Cycle, addr uint32) bool { return addr != 0xBAD0 },
		InfoFn: func(now sim.Cycle, addr uint32) (bool, bool) {
			return addr == 0x1000, addr == 0x2000
		},
	}
	st := p.Status(0, 0x1000)
	if !st.Permit || !st.BankIdle || st.RowOpen {
		t.Fatalf("idle-bank status = %+v", st)
	}
	st = p.Status(0, 0x2000)
	if !st.RowOpen || st.BankIdle {
		t.Fatalf("open-row status = %+v", st)
	}
	st = p.Status(0, 0xBAD0)
	if st.Permit {
		t.Fatal("permit should be denied")
	}
}

func TestProviderDisabledIsPermissive(t *testing.T) {
	l := NewLink(0)
	l.Enabled = false
	p := &Provider{
		Link:     l,
		PermitFn: func(sim.Cycle, uint32) bool { return false },
		InfoFn:   func(sim.Cycle, uint32) (bool, bool) { return true, true },
	}
	st := p.Status(0, 0)
	if !st.Permit || st.BankIdle || st.RowOpen {
		t.Fatalf("disabled BI should be permissive and information-free, got %+v", st)
	}
	// Nil link behaves the same.
	p.Link = nil
	st = p.Status(0, 0)
	if !st.Permit || st.BankIdle {
		t.Fatalf("nil link status = %+v", st)
	}
}
