// Command ahbsim runs one AHB+ simulation — the transaction-level model
// by default, the pin-accurate baseline it is validated against with
// -model rtl — on a selectable workload and prints the bus profile
// (utilization, contention, throughput, per-master latency) plus
// optional transaction traces. Both models print the identical profile,
// so the two abstraction levels are directly comparable:
//
//	ahbsim -workload seq -txns 500
//	ahbsim -workload seq -txns 500 -model rtl   # same cycle counts, much slower
//
// Usage:
//
//	ahbsim [-workload seq|rand|burst|stream|mixed] [-masters N]
//	       [-txns N] [-wb depth] [-pipelining] [-bi] [-trace N]
//	       [-config file.json] [-model tl|rtl] [-vcd wave.vcd]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
)

func main() {
	f := cli.Register(flag.CommandLine)
	model := flag.String("model", "tl", "abstraction level: tl|rtl")
	flag.Parse()

	m, err := core.ParseModel(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(cli.Execute(f, m, os.Stdout))
}
