// Package cli holds the workload construction and reporting behind the
// ahbsim command, so the two abstraction levels are driven identically
// from the command line.
package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Flags are the common simulation flags.
type Flags struct {
	Workload  *string
	Masters   *int
	Txns      *int
	WBDepth   *int
	Pipelined *bool
	BIOn      *bool
	TraceN    *int
	CfgPath   *string
	MaxCycles *uint64
	VCDPath   *string
	TraceFile *string
	Hist      *bool
}

// Register installs the common flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		Workload:  fs.String("workload", "mixed", "traffic pattern: seq|rand|burst|stream|mixed"),
		Masters:   fs.Int("masters", 3, "number of master ports"),
		Txns:      fs.Int("txns", 1000, "transactions per master"),
		WBDepth:   fs.Int("wb", 8, "write buffer depth (0 disables)"),
		Pipelined: fs.Bool("pipelining", true, "enable AHB+ request pipelining"),
		BIOn:      fs.Bool("bi", true, "enable the BI side-band interface"),
		TraceN:    fs.Int("trace", 0, "print the first N transaction traces"),
		CfgPath:   fs.String("config", "", "load platform parameters from JSON"),
		MaxCycles: fs.Uint64("max-cycles", 0, "cycle cap (0 = default)"),
		VCDPath:   fs.String("vcd", "", "write a VCD waveform of the AHB signals (pin-accurate model only)"),
		TraceFile: fs.String("trace-file", "", "replay a CSV transaction trace (master,at,addr,dir,beats) instead of -workload"),
		Hist:      fs.Bool("hist", false, "print per-master latency histograms"),
	}
}

// BuildGens returns a generator factory for a named workload family.
func BuildGens(workload string, masters, txns int) (func() []traffic.Generator, error) {
	mk := func(i int) traffic.Generator {
		base := uint32(i) << 19
		switch workload {
		case "seq":
			return &traffic.Sequential{Base: base, Beats: 8, Count: txns, Gap: 4}
		case "rand":
			return &traffic.Random{Seed: int64(i + 1), Base: base, WindowBytes: 1 << 18,
				MaxBeats: 8, WriteFrac: 0.3, MeanGap: 8, Count: txns}
		case "burst":
			return &traffic.Bursty{Base: base, Beats: 8, BurstTxns: 8, IdleGap: 150, Count: txns}
		case "stream":
			return &traffic.Stream{Base: base, Beats: 4, Period: 60, Count: txns}
		case "mixed":
			switch i % 3 {
			case 0:
				return &traffic.Sequential{Base: base, Beats: 8, Count: txns, WriteEvery: 3}
			case 1:
				return &traffic.Random{Seed: int64(i + 1), Base: base, WindowBytes: 1 << 18,
					MaxBeats: 8, WriteFrac: 0.4, MeanGap: 6, Count: txns}
			default:
				return &traffic.Stream{Base: base, Beats: 4, Period: 50, Count: txns}
			}
		}
		return nil
	}
	if mk(0) == nil {
		return nil, fmt.Errorf("unknown workload %q (seq|rand|burst|stream|mixed)", workload)
	}
	return func() []traffic.Generator {
		gens := make([]traffic.Generator, masters)
		for i := range gens {
			gens[i] = mk(i)
		}
		return gens
	}, nil
}

// Execute builds the workload from flags and runs it on the model,
// writing the full report to w. It returns a process exit code.
func Execute(f *Flags, model core.Model, w io.Writer) int {
	var p config.Params
	if *f.CfgPath != "" {
		loaded, err := config.Load(*f.CfgPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		p = loaded
	} else {
		p = config.Default(*f.Masters)
		p.WriteBufferDepth = *f.WBDepth
		p.Pipelining = *f.Pipelined
		p.BIEnabled = *f.BIOn
	}
	var gens func() []traffic.Generator
	name := *f.Workload
	if *f.TraceFile != "" {
		data, err := os.ReadFile(*f.TraceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		loaded, err := traffic.LoadCSV(bytes.NewReader(data))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if *f.CfgPath == "" {
			// Size the platform to the trace.
			p = config.Default(len(loaded))
		}
		if len(loaded) != len(p.Masters) {
			fmt.Fprintf(os.Stderr, "trace has %d masters, platform has %d\n", len(loaded), len(p.Masters))
			return 1
		}
		name = *f.TraceFile
		gens = func() []traffic.Generator {
			g, _ := traffic.LoadCSV(bytes.NewReader(data))
			return g
		}
	} else {
		built, err := BuildGens(*f.Workload, len(p.Masters), *f.Txns)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		gens = built
	}
	wl := core.Workload{Name: name, Params: p, Gens: gens, MaxCycles: sim.Cycle(*f.MaxCycles)}

	var tr *trace.Recorder
	if *f.TraceN > 0 {
		tr = trace.New(*f.TraceN)
	}
	chk := &check.Checker{}
	opt := core.Options{Tracer: tr, Checker: chk}
	if *f.VCDPath != "" {
		if model != core.RTL {
			fmt.Fprintln(os.Stderr, "waveforms exist only at pin level; use the rtl model with -vcd")
			return 2
		}
		vf, err := os.Create(*f.VCDPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer vf.Close()
		opt.Waveform = vf
	}
	res := core.Run(wl, model, opt)

	fmt.Fprintf(w, "model %s, workload %q, %d masters x %d txns\n", res.Model, *f.Workload, len(p.Masters), *f.Txns)
	if !res.Completed {
		fmt.Fprintln(w, "WARNING: run hit the cycle cap before the workload drained")
	}
	fmt.Fprintf(w, "wall clock            : %s (%.1f Kcycles/sec)\n", res.Wall, res.KCyclesPerSec())
	res.Stats.Report(w)
	if *f.Hist {
		fmt.Fprintln(w)
		res.Stats.ReportHistograms(w)
	}
	chk.Report(w)
	if tr != nil {
		fmt.Fprintln(w)
		tr.WriteText(w)
	}
	if !res.Completed {
		return 1
	}
	return 0
}
