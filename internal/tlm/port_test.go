package tlm

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/config"
)

func portParams() config.Params {
	p := config.Default(1)
	p.DDR = p.DDR.NoRefresh()
	return p
}

func TestPortWriteReadRoundTrip(t *testing.T) {
	pt := NewPort(portParams())
	if !pt.CheckGrant() {
		t.Fatal("CheckGrant on idle bus")
	}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	var ctrl Ctrl
	ctrl.Beats = 4
	if st := pt.Write(0x1000, payload, &ctrl); st != OK {
		t.Fatalf("Write status %v", st)
	}
	got := make([]byte, 16)
	ctrl2 := Ctrl{Beats: 4}
	if st := pt.Read(0x1000, got, &ctrl2); st != OK {
		t.Fatalf("Read status %v", st)
	}
	if !bytes.Equal(payload, got) {
		t.Fatalf("round trip: %v vs %v", got, payload)
	}
	if ctrl2.Done <= ctrl.Done {
		t.Fatal("time must advance across calls")
	}
	if ctrl2.FirstData > ctrl2.Done || ctrl2.ReqCycle >= ctrl2.FirstData {
		t.Fatalf("timing ordering broken: %+v", ctrl2)
	}
}

// TestNewPortLeavesCallerParamsAlone: the port builds its own
// single-master list instead of writing through the caller's slice.
func TestNewPortLeavesCallerParamsAlone(t *testing.T) {
	p := config.Default(3)
	want := append([]config.MasterCfg(nil), p.Masters...)
	NewPort(p)
	if !reflect.DeepEqual(p.Masters, want) {
		t.Fatalf("NewPort rewrote the caller's masters: %+v, want %+v", p.Masters, want)
	}
}

func TestPortTimingAdvances(t *testing.T) {
	pt := NewPort(portParams())
	var prev Ctrl
	for i := 0; i < 5; i++ {
		var c Ctrl
		c.Beats = 8
		if st := pt.Read(uint32(i)*0x40, nil, &c); st != OK {
			t.Fatalf("read %d: %v", i, st)
		}
		if i > 0 && c.Done <= prev.Done {
			t.Fatalf("read %d did not advance time: %+v after %+v", i, c, prev)
		}
		prev = c
	}
	if pt.Now() == 0 {
		t.Fatal("port clock did not advance")
	}
}

func TestPortRejectsIllegal(t *testing.T) {
	pt := NewPort(portParams())
	ctrl := Ctrl{Beats: 4}
	if st := pt.Read(0x3F8, nil, &ctrl); st != ErrIllegal {
		t.Fatalf("1KB-crossing burst returned %v, want ILLEGAL", st)
	}
	ctrl = Ctrl{Beats: 1}
	if st := pt.Read(0x2, nil, &ctrl); st != ErrIllegal {
		t.Fatalf("misaligned read returned %v, want ILLEGAL", st)
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{OK, ErrTimeout, ErrIllegal, Status(9)} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}
