package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// traced is the outcome of the traced passes.
type traced struct {
	passes     [][]sample
	mismatch   error // a traced pass that did not reproduce the first
	profile    string
	selfPct    map[string]float64
	gcBefore   gcReader
	gcAfter    gcReader
	profileDur time.Duration
}

// tracedRun repeats the machine set with every probe installed and a CPU
// profile running, then groups the profile by layer and writes the spans.
func tracedRun(ms []machine, cfg config, name string, budget time.Duration) (traced, error) {
	tr := traced{profile: filepath.Join(cfg.out, fmt.Sprintf("cpu-%s-seed%d.pprof", name, cfg.seed))}
	f, err := os.Create(tr.profile)
	if err != nil {
		return tr, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return tr, err
	}
	tr.gcBefore = readGC()
	tr.passes, tr.mismatch = runPasses(ms, budget, true)
	tr.gcAfter = readGC()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return tr, err
	}
	tr.selfPct, tr.profileDur, err = layerSelf(tr.profile, cfg.out)
	if err != nil {
		return tr, err
	}
	return tr, writeSpans(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed)), tr.passes)
}

// writeSpans writes every traced machine's spans, one JSON object a line.
func writeSpans(path string, passes [][]sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range flatten(passes) {
		for _, sp := range s.probe.spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayerValues computes the per-layer metrics from the traced passes;
// trace.overhead_pct compares them with the untraced passes.
func perLayerValues(untraced [][]sample, tr traced) values {
	vs := newValues()
	for _, l := range layers {
		vs.set(l+".self_pct", tr.selfPct[l], "of %v sampled", tr.profileDur)
	}

	var p probe
	var sum ledger
	var simS float64
	var epochs, generate []float64
	for pi, pass := range tr.passes {
		for _, s := range pass {
			if s.failed() {
				continue
			}
			for op := range p.ns {
				p.ns[op] += s.probe.ns[op]
				p.calls[op] += s.probe.calls[op]
			}
			epochs = append(epochs, s.probe.epochs.ms...)
			generate = append(generate, ms(s.setup))
			if pi > 0 {
				continue
			}
			// Counts come from the first pass; later passes repeat them.
			p.dispatches += s.probe.dispatches
			p.migrations += s.probe.migrations
			p.actuations += s.probe.actuations
			p.admitted += s.probe.admitted
			p.refused += s.probe.refused
			p.exits += s.probe.exits
			p.rungChanges += s.probe.rungChanges
			p.sheds += s.probe.sheds
			l := s.ledger
			simS += l.simTime.Seconds()
			sum.threads += l.threads
			sum.dispatches += l.dispatches
			sum.wakeups += l.wakeups
			sum.migrations += l.migrations
			sum.missed += l.missed
			sum.actuationErrors += l.actuationErrors
			sum.sheds += l.sheds
			sum.throttled += l.throttled
			sum.sampled += l.sampled
			sum.skipped += l.skipped
		}
	}
	passes := float64(len(tr.passes))
	if sum.threads > 0 {
		// storm-drain: rbs behind the timing decorator, kernel counters
		// from kernel.Stats.
		for op, name := range opNames {
			if p.calls[op] > 0 {
				vs.set("rbs."+name+"_ns", float64(p.ns[op])/float64(p.calls[op]), "mean of %d calls", p.calls[op])
			}
			vs.set("rbs."+name+"_calls", float64(p.calls[op])/passes, "per pass")
		}
		vs.set("rbs.missed_deadlines", float64(sum.missed), "per pass")
		vs.set("kernel.dispatches", float64(sum.dispatches)/simS, "per simulated s")
		vs.set("kernel.wakeups", float64(sum.wakeups)/simS, "per simulated s")
		vs.set("kernel.migrations", float64(sum.migrations)/simS, "per simulated s")
	} else {
		// slo machines: counts from the observer and the public snapshots.
		vs.set("kernel.dispatches", float64(p.dispatches)/simS, "per simulated s, observer")
		vs.set("kernel.migrations", float64(p.migrations)/simS, "per simulated s, observer")
		vs.set("core.actuations", float64(p.actuations), "per pass, observer")
		vs.set("core.actuation_errors", float64(sum.actuationErrors), "per pass, Health")
		vs.set("ctlplane.sample_ratio", float64(sum.sampled)/float64(max(sum.sampled+sum.skipped, 1)),
			"sampled %d / visited %d", sum.sampled, sum.sampled+sum.skipped)
		vs.set("overload.sheds", float64(sum.sheds), "per pass, Health")
		vs.set("overload.throttled", float64(sum.throttled), "per pass, Health")
		vs.set("overload.rung_changes", float64(p.rungChanges), "per pass, observer")
		vs.set("realrate.admitted", float64(p.admitted), "per pass, observer")
		vs.set("realrate.refused", float64(p.refused), "per pass, observer")
		vs.set("realrate.exits", float64(p.exits), "per pass, observer")
		vs.setMedian("gen.generate_ms", generate)
	}

	b, a := tr.gcBefore, tr.gcAfter
	busy := (a.value(1) - a.value(2)) - (b.value(1) - b.value(2))
	if busy > 0 {
		vs.set("gc.cpu_pct", 100*(a.value(0)-b.value(0))/busy, "of busy CPU")
	}
	vs.set("gc.alloc_mb_per_sim_s", (a.value(3)-b.value(3))/1e6/(simS*passes), "allocated")
	vs.set("gc.cycles", (a.value(4)-b.value(4))/passes, "per pass")

	vs.setMedian("epoch.host_ms_p50", epochs)
	q := quantiles(epochs, 0.99)
	vs.set("epoch.host_ms_p99", q[0], "of n=%d", len(epochs))
	vs.set("epoch.samples", float64(len(epochs)), "10 ms boundaries stamped")

	plain := endToEndValues(untraced).v["host_epoch_ref"]
	withProbe := endToEndValues(tr.passes).v["host_epoch_ref"]
	vs.set("trace.overhead_pct", 100*(withProbe-plain)/plain, "host_epoch_ref traced %.4g vs untraced %.4g", withProbe, plain)
	return vs
}
