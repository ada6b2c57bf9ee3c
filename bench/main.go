// Command bench is the repository's benchmark: the paper's kernel
// experiment, cold and warm serving, and a cluster sweep, each run as a
// closed loop against the system started in-process behind real
// loopback HTTP, with every output checked. README.md explains the
// workloads, the metrics and how the layers move them.
//
//	bash bench/run.sh --workload run_cold --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare a.ndjson b.ndjson
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

const (
	// measuredRounds is fixed: a shorter run shortens rounds, never
	// their number, so medians and quartiles always rest on five values.
	measuredRounds = 5
	// maxClients is the closed loop's size on the 2-core reference host.
	// Callers are scripts that wait for each reply, and a generator with
	// more goroutines than cores would measure its own queueing.
	maxClients = 2
	// defaultSeed is the seed numbers are quoted at; README.md names the
	// held-out seed that claims must also hold on.
	defaultSeed = 1
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	quick   bool
	outDir  string
	clients int
}

// roundDur is the length of one fixed-duration round.
func (c config) roundDur() time.Duration {
	if c.quick {
		return 150 * time.Millisecond
	}
	return time.Duration(c.seconds) * time.Second / measuredRounds
}

// scaled sizes fixed work: perSecond units for every second of
// -seconds, so a round's work is identical on any two commits and
// lasts about a fifth of -seconds on the reference host.
func (c config) scaled(perSecond float64, quick int) int {
	if c.quick {
		return quick
	}
	n := int(perSecond * float64(c.seconds))
	if n < 1 {
		n = 1
	}
	return n
}

// host records what the numbers were measured on.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// record is one run as -record appends it and -compare reads it.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Config    map[string]any    `json:"config"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checksum  string            `json:"checksum,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Also      map[string]metric `json:"also,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "kernels, run_cold, run_warm, sweep_cluster, a comma list, or all")
		seed     = flag.Int64("seed", defaultSeed, "the only source of randomness; inputs are a function of it")
		seconds  = flag.Int("seconds", 20, "measured seconds per workload, split into 5 rounds")
		trace    = flag.Int("trace", 0, "1 makes the traced run that yields the per-layer metrics")
		quick    = flag.Bool("quick", false, "tiny rounds and inputs: a smoke pass, not a measurement")
		recPath  = flag.String("record", "", "append each run as one JSON line to this file (input of -compare)")
		outDir   = flag.String("out", "out", "directory for trace files and temporary store directories")
		compare  = flag.Bool("compare", false, "compare two -record files given as arguments; exit 1 on a regression")
	)
	flag.Parse()
	// The servers log store and admin events through package log; a
	// benchmark's terminal is not where those belong.
	log.SetOutput(io.Discard)

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two record files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || *seconds > 600 {
		fatalf("-seconds %d out of range", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace wants 0 or 1")
	}
	defs, err := selectWorkloads(*workload)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, outDir: *outDir, clients: maxClients}
	if n := runtime.NumCPU(); n < cfg.clients {
		cfg.clients = n
	}

	allCorrect := true
	for _, def := range defs {
		rec, err := runWorkload(def, cfg)
		if err != nil {
			fatalf("%s: %v", def.name, err)
		}
		printReport(os.Stdout, def, rec)
		if *recPath != "" {
			if err := appendRecord(*recPath, rec); err != nil {
				fatalf("recording %s: %v", def.name, err)
			}
		}
		line := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]resultValue{}}
		for name, m := range rec.Metrics {
			line.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
		}
		out, err := json.Marshal(line)
		if err != nil {
			fatalf("encoding result: %v", err)
		}
		fmt.Printf("%s\n", out)
		allCorrect = allCorrect && rec.Correct
	}
	if !allCorrect {
		// A wrong output is fatal: the numbers above describe a broken
		// program and must not be read as a measurement.
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func selectWorkloads(arg string) ([]workloadDef, error) {
	if arg == "all" {
		return workloads, nil
	}
	var out []workloadDef
	for _, name := range strings.Split(arg, ",") {
		found := false
		for _, d := range workloads {
			if d.name == name {
				out = append(out, d)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

func appendRecord(path string, rec record) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport writes every metric by name with unit, sample count,
// median and quartiles.
func printReport(w io.Writer, def workloadDef, rec record) {
	mode := "untraced: end-to-end metrics"
	if rec.Trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d  %s\n", rec.Workload, rec.Seed, rec.Seconds, mode)
	fmt.Fprintf(w, "   host: %d cpu, GOMAXPROCS %d, %s %s/%s\n", rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.OS, rec.Host.Arch)
	cfgJSON, _ := json.Marshal(rec.Config) // a map of plain values cannot fail to encode
	fmt.Fprintf(w, "   config: %s\n", cfgJSON)
	fmt.Fprintf(w, "   why: %s\n", def.why)
	if !rec.Trace {
		fmt.Fprintf(w, "   throughput_per_s counts %s; p50_ms times %s\n", def.throughputOf, def.p50Of)
		fmt.Fprintf(w, "   values are at the reference host speed (calib.go); (raw_*) are wall-clock\n")
	}
	fmt.Fprintf(w, "   %-34s %-6s %9s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3")
	row := func(name string, m metric) {
		fmt.Fprintf(w, "   %-34s %-6s %9d %14.4f %14.4f %14.4f\n", name, m.Unit, m.N, m.Value, m.Q1, m.Q3)
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		row(d.name, rec.Metrics[d.name])
	}
	for _, name := range slices.Sorted(maps.Keys(rec.Also)) {
		row("("+name+")", rec.Also[name])
	}
	share := 0.0
	if rec.Attempted > 0 {
		share = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Fprintf(w, "   error_share %.6f (%d failed of %d attempted)  correct=%v\n", share, rec.Failed, rec.Attempted, rec.Correct)
	if rec.Checksum != "" {
		fmt.Fprintf(w, "   simulated-statistics checksum %s\n", rec.Checksum)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}
