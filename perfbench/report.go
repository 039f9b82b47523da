package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A metric is one named, unit-bearing number a run reports. BENCHMARK.json
// lists the endToEnd and perLayer names; TestMetricTablesMatchBenchmarkJSON
// keeps the two in step.
type metric struct {
	name, unit string
}

// endToEnd are the bounded metrics of the untraced run: every one is
// defined and nonzero on every workload.
var endToEnd = []metric{
	{"host_epoch_ref", "ref"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"survived_share", "share"},
	{"completed_per_sim_s", "1/s"},
}

// tableMetrics are the remaining end-to-end metrics. The table prints
// them and the JSON line does not: host_ms_per_epoch drifts with the host
// far more than its bound allows (host_epoch_ref is the steady form), and
// each of the others exists on only some workloads.
var tableMetrics = []metric{
	{"host_ms_per_epoch", "ms"},
	{"failed_share", "share"},
	{"session_attainment", "share"},
	{"session_goodput", "share"},
	{"session_p50_ms", "sim_ms"},
	{"session_p99_ms", "sim_ms"},
	{"wake_dispatch_p99_ms", "sim_ms"},
	{"refused_share", "share"},
	{"drain_sim_s", "sim_s"},
	{"sched_overhead_pct", "%"},
}

// perLayer are the traced run's metrics. A metric a workload has no such
// layer for (rbs call timings outside storm-drain, session counters on
// storm-drain) reads 0 there.
var perLayer = func() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{l + ".self_pct", "%"})
	}
	for _, op := range opNames {
		ms = append(ms, metric{"rbs." + op + "_ns", "ns"}, metric{"rbs." + op + "_calls", "count"})
	}
	return append(ms,
		metric{"rbs.missed_deadlines", "count"},
		metric{"kernel.dispatches", "1/s"},
		metric{"kernel.wakeups", "1/s"},
		metric{"kernel.migrations", "1/s"},
		metric{"core.actuations", "count"},
		metric{"core.actuation_errors", "count"},
		metric{"ctlplane.sample_ratio", "ratio"},
		metric{"overload.sheds", "count"},
		metric{"overload.throttled", "count"},
		metric{"overload.rung_changes", "count"},
		metric{"realrate.admitted", "count"},
		metric{"realrate.refused", "count"},
		metric{"realrate.exits", "count"},
		metric{"gc.cpu_pct", "%"},
		metric{"gc.alloc_mb_per_sim_s", "MB/sim_s"},
		metric{"gc.cycles", "count"},
		metric{"gen.generate_ms", "ms"},
		metric{"epoch.host_ms_p50", "ms"},
		metric{"epoch.host_ms_p99", "ms"},
		metric{"epoch.samples", "count"},
		metric{"trace.overhead_pct", "%"},
	)
}()

// result is one JSON line: the contract's last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values holds computed metrics by name; a missing name is not defined on
// the workload. notes holds each metric's sample count or base.
type values struct {
	v     map[string]float64
	notes map[string]string
}

func newValues() values {
	return values{v: map[string]float64{}, notes: map[string]string{}}
}

func (vs values) set(name string, v float64, note string, args ...any) {
	vs.v[name] = v
	vs.notes[name] = fmt.Sprintf(note, args...)
}

// setMedian records per-machine samples as their median, with the sample
// count and the highest percentile that has at least ten samples beyond it.
func (vs values) setMedian(name string, xs []float64) {
	q := quantiles(xs, 0.5, 0.9, 0.99)
	note := fmt.Sprintf("median of n=%d", len(xs))
	switch {
	case len(xs) >= 1000:
		note += fmt.Sprintf(", p99 %.4g", q[2])
	case len(xs) >= 100:
		note += fmt.Sprintf(", p90 %.4g", q[1])
	}
	vs.set(name, q[0], "%s", note)
}

// endToEndValues computes every end-to-end metric of an untraced run from
// its passes. Host timings pool every surviving sample; the simulated
// ledger comes from the first pass, which every later pass reproduces.
func endToEndValues(passes [][]sample) values {
	vs := newValues()
	var perEpoch, setup, rss, ref []float64
	for _, s := range flatten(passes) {
		ref = append(ref, ms(s.ref))
		if !s.failed() {
			setup = append(setup, s.setup.Seconds())
			rss = append(rss, s.rssMB)
			perEpoch = append(perEpoch, float64(s.host)/float64(time.Millisecond)/(float64(s.ledger.simTime)/float64(epoch)))
		}
	}
	vs.setMedian("host_ms_per_epoch", perEpoch)
	refMS := quantiles(ref, 0.5)[0]
	vs.set("host_epoch_ref", vs.v["host_ms_per_epoch"]/refMS,
		"host_ms_per_epoch / reference median %.4g ms (n=%d)", refMS, len(ref))
	vs.setMedian("setup_s", setup)
	vs.setMedian("peak_rss_mb", rss)

	first := passes[0]
	var survivors []ledger
	offered := 0
	for _, s := range first {
		offered += s.offered
		if !s.failed() {
			survivors = append(survivors, s.ledger)
		}
	}
	n, failed := len(first), len(first)-len(survivors)
	vs.set("survived_share", float64(len(survivors))/float64(n), "%d/%d machines", len(survivors), n)
	vs.set("failed_share", float64(failed)/float64(n), "%d/%d machines", failed, n)
	if len(survivors) == 0 {
		return vs
	}
	var sum ledger
	var simS, p50, p99, wake float64
	for _, l := range survivors {
		sum.started += l.started
		sum.refused += l.refused
		sum.completed += l.completed
		sum.met += l.met
		simS += l.simTime.Seconds()
		p50 += ms(l.sessP50)
		p99 += ms(l.sessP99)
		wake += ms(l.wakeP99)
	}
	k := float64(len(survivors))
	if l := survivors[0]; l.threads > 0 {
		vs.set("completed_per_sim_s", float64(l.retired)/l.drain.Seconds(), "%d threads / drain", l.retired)
		vs.set("drain_sim_s", l.drain.Seconds(), "simulated")
		vs.set("sched_overhead_pct", 100*float64(l.overhead)/(float64(l.elapsed)*float64(l.cpus)),
			"overhead / (elapsed x %d CPUs)", l.cpus)
		return vs
	}
	vs.set("completed_per_sim_s", float64(sum.completed)/simS, "%d sessions / %.0f simulated s", sum.completed, simS)
	vs.set("session_attainment", ratio(sum.met, sum.completed), "met %d / completed %d", sum.met, sum.completed)
	vs.set("session_goodput", ratio(sum.met, offered), "met %d / offered %d (failed machines' sessions missed)", sum.met, offered)
	vs.set("session_p50_ms", p50/k, "per-machine p50, mean of %d machines", len(survivors))
	vs.set("session_p99_ms", p99/k, "per-machine p99, mean of %d machines", len(survivors))
	vs.set("wake_dispatch_p99_ms", wake/k, "per-machine p99, mean of %d machines", len(survivors))
	vs.set("refused_share", ratio(sum.refused, sum.started), "refused %d / started %d", sum.refused, sum.started)
	return vs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// resetPeakRSS returns freed memory to the operating system and restarts
// the resident-set high-water mark, so that the next peakRSSMB reads one
// machine's own peak rather than the largest of every machine before it.
// Where /proc/self/clear_refs cannot be written the mark is not reset and
// peakRSSMB reads the process peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark since resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(v, "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// gcReader samples the runtime's GC counters around the traced passes.
type gcReader []metrics.Sample

func readGC() gcReader {
	s := gcReader{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/automatic:gc-cycles"},
	}
	metrics.Read(s)
	return s
}

func (g gcReader) value(i int) float64 {
	if g[i].Value.Kind() == metrics.KindUint64 {
		return float64(g[i].Value.Uint64())
	}
	return g[i].Value.Float64()
}

// fingerprint names the host a result was measured on.
func fingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// printTable writes one row per metric: name, value, unit and its note,
// or n/a where the workload has no such metric.
func printTable(w io.Writer, title string, ms []metric, vs values) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		v, ok := vs.v[m.name]
		if !ok {
			fmt.Fprintf(w, "  %-28s %14s\n", m.name, "n/a")
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-9s %s\n", m.name, v, m.unit, vs.notes[m.name])
	}
}

// quantiles returns the q-quantiles (0..1) of xs by nearest rank.
func quantiles(xs []float64, qs ...float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	if len(s) == 0 {
		return out
	}
	for i, q := range qs {
		out[i] = s[int(q*float64(len(s)-1)+0.5)]
	}
	return out
}
