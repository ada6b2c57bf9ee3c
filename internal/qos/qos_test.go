package qos

import (
	"testing"

	"repro/internal/sim"
)

func TestRegValidate(t *testing.T) {
	if err := (Reg{Class: RT, Objective: 100}).Validate(); err != nil {
		t.Fatalf("valid RT reg rejected: %v", err)
	}
	if err := (Reg{Class: NRT}).Validate(); err != nil {
		t.Fatalf("valid NRT reg rejected: %v", err)
	}
	if (Reg{Class: RT}).Validate() == nil {
		t.Fatal("RT without objective must be rejected")
	}
	if (Reg{Quota: 1.5}).Validate() == nil {
		t.Fatal("quota > 1 must be rejected")
	}
	if (Reg{Quota: -0.1}).Validate() == nil {
		t.Fatal("negative quota must be rejected")
	}
}

func TestSlack(t *testing.T) {
	r := Reg{Class: RT, Objective: 100}
	if got := r.Slack(50, 0); got != 50 {
		t.Fatalf("Slack = %v, want 50", got)
	}
	if got := r.Slack(150, 0); got != 0 {
		t.Fatalf("overdue Slack = %v, want 0 (floored)", got)
	}
	if got := r.Slack(10, 10); got != 100 {
		t.Fatalf("fresh request Slack = %v, want full objective", got)
	}
	noObj := Reg{Class: NRT}
	if noObj.Slack(1000, 0) != sim.CycleMax {
		t.Fatal("no-objective Slack should be CycleMax")
	}
}

func TestRegMissed(t *testing.T) {
	cases := []struct {
		name string
		reg  Reg
		lat  sim.Cycle
		want bool
	}{
		{"no objective, zero latency", Reg{Class: NRT}, 0, false},
		{"no objective, huge latency", Reg{Class: NRT}, sim.CycleMax, false},
		{"under objective", Reg{Class: RT, Objective: 20}, 10, false},
		{"at objective", Reg{Class: RT, Objective: 20}, 20, false},
		{"one over objective", Reg{Class: RT, Objective: 20}, 21, true},
		{"NRT with objective", Reg{Class: NRT, Objective: 5}, 6, true},
	}
	for _, c := range cases {
		if got := c.reg.Missed(c.lat); got != c.want {
			t.Errorf("%s: Missed(%d) = %v, want %v", c.name, c.lat, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if NRT.String() != "NRT" || RT.String() != "RT" || Class(7).String() == "" {
		t.Fatal("Class.String")
	}
}
