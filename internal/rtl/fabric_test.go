package rtl

import (
	"testing"

	"repro/internal/amba"
	"repro/internal/config"
	"repro/internal/traffic"
)

// TestReadBeatsCarryMemoryWords steps a mixed DDR and SRAM workload of
// reads and writes a cycle at a time and checks every driven read beat:
// the committed HRData equals the memory word at the beat's address at
// that cycle, which is what a fabric reading memory on every beat
// drives. The fabric serves the beat from the payload it read at
// capture, so a write landing between capture and a later beat fails
// here.
func TestReadBeatsCarryMemoryWords(t *testing.T) {
	// script writes then reads back bursts of 1, 4 and 8 beats at
	// aligned addresses from base, overlapping the other masters' data.
	script := func(base uint32) *traffic.Script {
		s := &traffic.Script{}
		for i := range 60 {
			beats := []int{1, 4, 8}[i%3]
			addr := base + uint32(i%20*64)
			burst := amba.FixedBurstFor(beats, false)
			s.Reqs = append(s.Reqs,
				traffic.Req{Addr: addr, Beats: beats, Burst: burst, Write: true},
				traffic.Req{Addr: addr, Beats: beats, Burst: burst})
		}
		return s
	}
	for _, busBytes := range []int{2, 4, 8} {
		p := config.Default(3)
		p.BusBytes = busBytes
		p.SRAM = config.SRAMCfg{Enabled: true, Base: uint32(p.AddrMap.Capacity()), Size: 1 << 14, WaitStates: 1}
		b, _, _ := build(t, p, script(0), script(p.SRAM.Base), script(0x200))
		beats := map[string]int{}
		for !b.done() && b.Now() < 200_000 {
			b.Step()
			c, now := &b.fabric.cur, b.Now()
			if !c.active || c.rec.Write || c.erred || now < c.rec.FirstData || now > c.rec.Done {
				continue
			}
			size := b.fabric.size.Bytes()
			ba := c.rec.Addr + uint32(int(now-c.rec.FirstData)*size)
			want := uint32(b.Mem().ReadWord(ba, min(4, size)))
			if got := b.fabric.w.HRData.Get(); got != want {
				t.Fatalf("bus %d bytes, cycle %v: %s read beat at %#x drives %#x, memory holds %#x",
					busBytes, now, c.rec.Kind, ba, got, want)
			}
			beats[c.rec.Kind]++
		}
		if !b.done() {
			t.Fatalf("bus %d bytes: workload did not drain", busBytes)
		}
		if beats["sram"] == 0 || len(beats) < 2 {
			t.Fatalf("bus %d bytes: read beats checked per slave kind %v, want SRAM and DDR", busBytes, beats)
		}
	}
}

// TestWriteBufferImageFollowsQueue steps a write-heavy workload a cycle
// at a time, gated and with gating off, and checks after every cycle
// that the committed slot registers, WBUsed and front entry describe
// the fabric's queue exactly: the values a fabric republishing them on
// every cycle commits. The fabric drives them only on a cycle the queue
// changed, so a missed republish fails here.
func TestWriteBufferImageFollowsQueue(t *testing.T) {
	for _, gateOff := range []bool{false, true} {
		p := config.Default(3)
		p.WriteBufferDepth = 4
		b, _, _ := build(t, p,
			&traffic.Sequential{Base: 0x0000, Beats: 4, Count: 120, WriteEvery: 1, Gap: 1},
			&traffic.Random{Seed: 7, Base: 0x40000, WindowBytes: 1 << 14, MaxBeats: 8, WriteFrac: 0.8, MeanGap: 4, Count: 120},
			&traffic.Bursty{Base: 0x80000, Beats: 8, BurstTxns: 5, IdleGap: 120, Count: 120, Write: true},
		)
		b.kernel.GateDisabled = gateOff
		f, w := b.fabric, b.fabric.w
		checked := 0
		for !b.done() && b.Now() < 200_000 {
			b.Step()
			for i, r := range f.slotR {
				want := wbSlot{}
				if i < len(f.queue) {
					want = wbSlot{addr: f.queue[i].addr, beats: f.queue[i].beats, valid: true}
				}
				if r.Get() != want {
					t.Fatalf("gating off %v, cycle %v: slot %d holds %+v, queue %+v", gateOff, b.Now(), i, r.Get(), f.queue)
				}
			}
			var frontA uint32
			var frontLen int
			if len(f.queue) > 0 {
				frontA, frontLen = f.queue[0].addr, f.queue[0].beats
			}
			if w.WBUsed.Get() != len(f.queue) || w.WBFrontA.Get() != frontA || w.WBFrontLen.Get() != frontLen {
				t.Fatalf("gating off %v, cycle %v: published used %d front %#x x%d, queue %+v",
					gateOff, b.Now(), w.WBUsed.Get(), w.WBFrontA.Get(), w.WBFrontLen.Get(), f.queue)
			}
			if len(f.queue) > 0 {
				checked++
			}
		}
		res := b.plat.Finish(b.Now(), b.done())
		if !res.Completed {
			t.Fatalf("gating off %v: workload did not drain", gateOff)
		}
		if res.Stats.WBPeak != p.WriteBufferDepth || res.Stats.WBDrained == 0 || checked == 0 {
			t.Fatalf("gating off %v: write buffer peak %d of %d, %d drained, %d occupied cycles: the workload does not fill it",
				gateOff, res.Stats.WBPeak, p.WriteBufferDepth, res.Stats.WBDrained, checked)
		}
	}
}
