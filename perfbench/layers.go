package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// layers are the per-module rows of the traced run's self-time table, in
// print order. bench is the benchmark's own code (its loop, observer and
// timing decorator); other is every sample with no repo or benchmark frame
// on its stack — runtime background work such as GC mark workers.
var layers = []string{
	"gen", "realrate", "core", "ctlplane", "overload", "progress", "pid",
	"rbs", "kernel", "sim", "bench", "other",
}

// layerOf maps every package of the repository to its layer. Packages no
// workload runs map to other; TestEveryRepoPackageHasALayer keeps the
// table complete.
var layerOf = map[string]string{
	"repro":                        "realrate",
	"repro/internal/faults":        "realrate",
	"repro/internal/metrics":       "realrate",
	"repro/internal/trace":         "realrate",
	"repro/internal/core":          "core",
	"repro/internal/ctlplane":      "ctlplane",
	"repro/internal/overload":      "overload",
	"repro/internal/progress":      "progress",
	"repro/internal/pid":           "pid",
	"repro/internal/swift":         "pid",
	"repro/internal/rbs":           "rbs",
	"repro/internal/kernel":        "kernel",
	"repro/internal/sim":           "sim",
	"repro/internal/workload":      "gen",
	"repro/internal/workload/gen":  "gen",
	"repro/internal/experiments":   "gen",
	"repro/internal/baseline":      "other",
	"repro/cmd/rrexp":              "other",
	"repro/cmd/rrtop":              "other",
	"repro/cmd/rrtrace":            "other",
	"repro/examples/cracker":       "other",
	"repro/examples/pathfinder":    "other",
	"repro/examples/quickstart":    "other",
	"repro/examples/videopipeline": "other",
	"repro/examples/webserver":     "other",
	"repro/scripts/benchmerge":     "other",
	"main":                         "bench",
}

// funcPackage returns the import path of a symbolized function name such
// as "repro/internal/rbs.(*Policy).Pick" or "main.(*observer).OnExit".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// stackLayer attributes one sample: the innermost frame that belongs to a
// repo or benchmark package names the layer, so standard-library and
// runtime work (allocation, sorting) counts against the layer that called
// it.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOf[funcPackage(fn)]; ok {
			return l
		}
	}
	return "other"
}

// layerSelf reads a CPU profile with the installed go tool pprof and
// returns each layer's share of the samples in percent, with the total
// sampled time.
func layerSelf(profile, tmp string) (map[string]float64, time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmp)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	byLayer, total, err := parseTraces(out)
	if err != nil {
		return nil, 0, err
	}
	if total <= 0 {
		return nil, 0, fmt.Errorf("go tool pprof: profile %s holds no samples", profile)
	}
	pct := make(map[string]float64, len(layers))
	for _, l := range layers {
		pct[l] = 100 * float64(byLayer[l]) / float64(total)
	}
	return pct, total, nil
}

// parseTraces sums the sample time of `go tool pprof -traces` output by
// layer. Each trace block starts with its value on the leaf frame's line;
// the caller frames follow, one per line.
func parseTraces(out []byte) (map[string]time.Duration, time.Duration, error) {
	byLayer := map[string]time.Duration{}
	var total, value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byLayer[stackLayer(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	inTraces := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, 0, fmt.Errorf("go tool pprof -traces: bad sample value in %q", line)
			}
			value = d
			fields = fields[1:]
		}
		if len(fields) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	return byLayer, total, sc.Err()
}
