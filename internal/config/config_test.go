package config

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arb"
	"repro/internal/qos"
)

func TestDefaultValidates(t *testing.T) {
	p := Default(3)
	if err := p.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	if len(p.Masters) != 3 {
		t.Fatalf("masters %d", len(p.Masters))
	}
	if !p.Pipelining || !p.BIEnabled || p.WriteBufferDepth == 0 {
		t.Fatal("default should enable the AHB+ features")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"bus width", func(p *Params) { p.BusBytes = 3 }},
		{"no masters", func(p *Params) { p.Masters = nil }},
		{"negative wb", func(p *Params) { p.WriteBufferDepth = -1 }},
		{"rt without objective", func(p *Params) { p.Masters[0].RealTime = true; p.Masters[0].QoSObjective = 0 }},
		{"bad quota", func(p *Params) { p.Masters[0].BandwidthQuota = 2 }},
		{"bad ddr", func(p *Params) { p.DDR.TRCD = 0 }},
		// Unbounded, these made ddr.NewEngine ask for 2^30 banks (a fatal
		// out-of-memory) or panic in makeslice.
		{"2^30 banks", func(p *Params) { p.AddrMap.BankBits = 30 }},
		{"2^45 banks", func(p *Params) { p.AddrMap.BankBits = 45 }},
		{"33 address bits", func(p *Params) { p.AddrMap.RowBits = 21 }},
		{"wrapping address bits", func(p *Params) { p.AddrMap.RowBits = ^uint(0) - 5 }},
	}
	for _, c := range cases {
		p := Default(2)
		c.mut(&p)
		if p.Validate() == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
}

func TestMasterCfgReg(t *testing.T) {
	m := MasterCfg{RealTime: true, QoSObjective: 120, BandwidthQuota: 0.25}
	r := m.Reg()
	if r.Class != qos.RT || r.Objective != 120 || r.Quota != 0.25 {
		t.Fatalf("reg %+v", r)
	}
	if (MasterCfg{}).Reg().Class != qos.NRT {
		t.Fatal("default class should be NRT")
	}
}

func TestQoSRegs(t *testing.T) {
	p := Default(2)
	p.Masters[1].RealTime = true
	p.Masters[1].QoSObjective = 90
	regs := p.QoSRegs()
	if len(regs) != 2 || regs[1].Class != qos.RT || regs[1].Objective != 90 {
		t.Fatalf("regs %+v", regs)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "platform.json")
	p := Default(2)
	p.Masters[0].Name = "video"
	p.Masters[0].RealTime = true
	p.Masters[0].QoSObjective = 150
	p.WriteBufferDepth = 16
	p.Filters.Bandwidth = false
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Masters[0].Name != "video" || !got.Masters[0].RealTime {
		t.Fatalf("master lost in round trip: %+v", got.Masters[0])
	}
	if got.WriteBufferDepth != 16 || got.Filters.Bandwidth {
		t.Fatalf("params lost in round trip: %+v", got)
	}
	if got.DDR != p.DDR {
		t.Fatalf("ddr timing lost: %+v vs %+v", got.DDR, p.DDR)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("bad json should error")
	}
	invalid := filepath.Join(dir, "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"bus_bytes":3,"masters":[{"name":"a"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(invalid); err == nil {
		t.Fatal("invalid config should fail validation")
	}
}

func TestPlainAHBPreset(t *testing.T) {
	p := PlainAHB(3)
	if err := p.Validate(); err != nil {
		t.Fatalf("plain AHB invalid: %v", err)
	}
	if p.WriteBufferDepth != 0 || p.Pipelining || p.BIEnabled {
		t.Fatalf("plain AHB should disable the AHB+ extensions: %+v", p)
	}
	if p.Filters != (arb.Enabled{}) {
		t.Fatalf("plain AHB should disable all filters: %+v", p.Filters)
	}
}

func TestSRAMCfgContains(t *testing.T) {
	s := SRAMCfg{Enabled: true, Base: 0x1000, Size: 0x100}
	cases := []struct {
		addr uint32
		want bool
	}{
		{0x0FFF, false}, {0x1000, true}, {0x10FF, true}, {0x1100, false},
	}
	for _, c := range cases {
		if s.Contains(c.addr) != c.want {
			t.Errorf("Contains(%#x) = %v, want %v", c.addr, !c.want, c.want)
		}
	}
	s.Enabled = false
	if s.Contains(0x1000) {
		t.Fatal("disabled SRAM should contain nothing")
	}
}

func TestValidateSRAM(t *testing.T) {
	p := Default(1)
	p.SRAM = SRAMCfg{Enabled: true, Base: uint32(p.AddrMap.Capacity()), Size: 0}
	if p.Validate() == nil {
		t.Fatal("zero-size SRAM accepted")
	}
	p.SRAM = SRAMCfg{Enabled: true, Base: 0x1000, Size: 0x100}
	if p.Validate() == nil {
		t.Fatal("SRAM overlapping DDR accepted")
	}
	p.SRAM = SRAMCfg{Enabled: true, Base: uint32(p.AddrMap.Capacity()), Size: 1 << 16}
	if err := p.Validate(); err != nil {
		t.Fatalf("legal SRAM rejected: %v", err)
	}
}

func TestSRAMAndClosedPageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	p := Default(1)
	p.ClosedPage = true
	p.SRAM = SRAMCfg{Enabled: true, Base: uint32(p.AddrMap.Capacity()), Size: 4096, WaitStates: 3}
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ClosedPage || !got.SRAM.Enabled || got.SRAM.WaitStates != 3 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestMarshalIndentStable(t *testing.T) {
	p := Default(1)
	a, err := p.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("marshal not deterministic")
	}
}

func TestSaveToUnwritablePath(t *testing.T) {
	p := Default(1)
	if err := p.Save("/proc/definitely/not/writable.json"); err == nil {
		t.Fatal("expected error")
	}
}
