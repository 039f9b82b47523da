// Command perfbench is the repository's benchmark. It runs a named
// workload against the simulator from the outside — through gen.Generate,
// (*gen.Scenario).Run and the sim, kernel and rbs constructors — checks
// the outputs, and prints every metric by name with its unit. See
// README.md for the workloads and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload slo-knee --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a separate traced run with
// --trace 1. --workload all runs every workload in one process, each
// ending with its own JSON line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload's machines are drawn from")
	seconds := fs.Float64("seconds", 20, "host seconds to measure for, per workload")
	traceMode := fs.Int("trace", 0, "1 adds a separate traced run and prints the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the CPU profile and span log of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, or all)\n", *name, workloadNames())
			return 2
		}
		ws = []workload{w}
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *traceMode)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		traced: *traceMode == 1, out: *out}
	code := 0
	for _, w := range ws {
		res, err := runWorkload(stdout, w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type config struct {
	seed   uint64
	budget time.Duration
	traced bool
	out    string
}

// runWorkload measures one workload and returns its JSON result. Failed
// output checks make the result incorrect; an error means the benchmark
// itself could not run.
func runWorkload(w io.Writer, wl workload, cfg config) (result, error) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t\n", wl.name, cfg.seed, cfg.budget.Seconds(), cfg.traced)
	fmt.Fprintln(w, fingerprint())
	ms := wl.machines(cfg.seed)
	budget := cfg.budget
	if cfg.traced {
		budget /= 2 // the other half goes to the traced passes
	}
	var problems []string
	passes, err := runPasses(ms, budget, false)
	if err != nil {
		problems = append(problems, err.Error())
	}
	for _, s := range passes[0] {
		if s.failed() {
			fmt.Fprintf(w, "replay: workload=%s seed=%d machine=%d %s -> %s\n", wl.name, cfg.seed, s.m.id, s.m.replay, s.failure)
		} else if err := checkLedger(s.ledger); err != nil {
			problems = append(problems, fmt.Sprintf("machine %d: %v", s.m.id, err))
		}
	}
	if first := passes[0][0]; first.ledger.threads > 0 && !first.failed() {
		if err := checkStormReference(first.ledger); err != nil {
			problems = append(problems, err.Error())
		}
	}
	e2e := endToEndValues(passes)
	printTable(w, fmt.Sprintf("end-to-end, untraced (%d passes of %d machines)", len(passes), len(ms)),
		append(append([]metric(nil), endToEnd...), tableMetrics...), e2e)

	res := result{Metrics: map[string]jsonMetric{}}
	count(&res, passes[0])
	if !cfg.traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = jsonMetric{Value: e2e.v[m.name], Unit: m.unit}
		}
	} else {
		tr, err := tracedRun(ms, cfg, wl.name, budget)
		if err != nil {
			return result{}, err
		}
		if tr.mismatch != nil {
			problems = append(problems, "traced run: "+tr.mismatch.Error())
		}
		if err := samePass(passes[0], tr.passes[0]); err != nil {
			problems = append(problems, "traced run differs from untraced run: "+err.Error())
		}
		pl := perLayerValues(passes, tr)
		printTable(w, fmt.Sprintf("per-layer, traced (%d passes; profile %s)", len(tr.passes), tr.profile), perLayer, pl)
		for _, m := range perLayer {
			res.Metrics[m.name] = jsonMetric{Value: pl.v[m.name], Unit: m.unit}
		}
	}
	for _, p := range problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	res.Correct = len(problems) == 0
	return res, nil
}

// count sets the result's totals from one pass: each machine of the
// workload counts once. Later passes and the traced run repeat the same
// machines with the same outcome (runPasses and samePass check that), so
// the totals depend on the seed alone, not on how many passes fit in the
// time budget.
func count(res *result, pass []sample) {
	for _, s := range pass {
		res.Attempted++
		if s.failed() {
			res.Failed++
		}
	}
}
