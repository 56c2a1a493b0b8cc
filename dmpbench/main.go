// Command dmpbench is the repository's benchmark. One invocation runs one
// named workload for a fixed measuring time, checks every output the
// program produced against a reference, and prints the metrics by name
// with their units. BENCHMARK.json at the repository root lists the
// workloads, the metrics and their regression bounds; README.md in this
// directory explains why each workload exists and how to run both passes.
//
// Run it from the repository root through run.sh, which builds this
// package first:
//
//	bash dmpbench/run.sh --workload core-exact --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the second, traced pass: it alternates traced and untraced
// repetitions, records spans around every call the benchmark makes into
// the program, and prints the per-layer metrics, each layer's self time
// and the tracing overhead. The last line of standard output is always
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// The benchmark drives the program only through the public functions of
// internal/exp, core, emu, sample, workload, profile, store and serve, and
// reads the always-on counters of telemetry.DefaultRegistry. It never
// calls telemetry.Enable and never hands a span to the program, so the
// program's own trace sites stay off in both passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dmpbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dmpbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", defaultSeed, "input seed")
		seconds = fs.Int("seconds", 12, "measuring time in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass with per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := workloadByName(*name)
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *seconds < 1:
		return fmt.Errorf("--seconds %d: want at least 1", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	work := os.Getenv("DMPBENCH_WORK")
	if work == "" {
		work = ".bench_build"
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	work, err = os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	printHostFacts(*name, *seed, *trace)
	r := newRunner(*seed, *seconds, *trace == 1, string(golden), work)
	if err := w.run(r); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res, err := r.result()
	if err != nil {
		return err
	}
	if r.traced {
		path := filepath.Join(filepath.Dir(work), fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		if err := os.WriteFile(path, r.trBuf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("# trace written to %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// goldenPath is the committed scale-1 output of `dmpexp -scale 1 all`.
// The benchmark only reads it.
const goldenPath = "cmd/dmpexp/testdata/all-scale1.golden"

// defaultSeed is the seed the benchmark runs without --seed. README.md
// names the held-out seed kept for confirming later claims.
const defaultSeed int64 = 1

// printHostFacts prints the facts every result is read against.
func printHostFacts(name string, seed int64, trace int) {
	commit := os.Getenv("DMPBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d workload=%s trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed, name, trace)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
