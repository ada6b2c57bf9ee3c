package platform_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/memmodel"
	"repro/internal/platform"
	"repro/internal/rtl"
	"repro/internal/tlm"
	"repro/internal/traffic"
)

// TestWriteByteMatchesBothModelsOver64KiB walks one master over 64 KiB
// of contiguous writes — every 256-byte boundary, where the incremental
// writer both models use (memmodel.FillPattern) re-seeds — and requires
// the memory image of either model to be the closed form, byte for byte.
func TestWriteByteMatchesBothModelsOver64KiB(t *testing.T) {
	const base, span, beats = 0x1000, 64 << 10, 8
	p := config.Default(2) // master 1 idles: a non-zero index is under test too
	gens := func() []traffic.Generator {
		return []traffic.Generator{
			&traffic.Sequential{Count: 0},
			&traffic.Sequential{Base: base, Beats: beats, Count: span / (beats * p.BusBytes), WriteEvery: 1},
		}
	}
	models := map[string]platform.Model{
		"tlm": tlm.New(platform.Config{Params: p, Gens: gens()}),
		"rtl": rtl.New(platform.Config{Params: p, Gens: gens()}),
	}
	for name, m := range models {
		if !m.Run(0).Completed {
			t.Fatalf("%s: walk did not drain", name)
		}
		for a := uint32(base); a < base+span; a++ {
			if got, want := m.Mem().ByteAt(a), memmodel.PatternByte(1, a); got != want {
				t.Fatalf("%s: mem[%#x] = %#x, PatternByte = %#x", name, a, got, want)
			}
		}
		if m.Mem().ByteAt(base+span) != 0 || m.Mem().ByteAt(base-1) != 0 {
			t.Fatalf("%s: walk wrote outside [%#x, %#x)", name, base, base+span)
		}
	}
}

// TestBuildPanicsOnInvalidQoSReg: QoS registers are static
// configuration, so an RT master without an objective fails elaboration.
func TestBuildPanicsOnInvalidQoSReg(t *testing.T) {
	p := config.Default(2)
	p.Masters[1].RealTime = true
	p.Masters[1].QoSObjective = 0
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "objective") {
			t.Fatalf("Build on an RT master without an objective: recovered %v", r)
		}
	}()
	platform.Build(platform.Config{Params: p, Gens: make([]traffic.Generator, 2)})
}
