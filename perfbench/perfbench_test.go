package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, ms := range [][]metric{endToEnd, tableMetrics, perLayer} {
		for _, m := range ms {
			check(m.name)
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
			}
		}
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

func TestEveryRepoPackageHasALayer(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for pkg, l := range layerOf {
		if !known[l] {
			t.Errorf("package %s maps to %q, which is not a layer", pkg, l)
		}
	}
	dirs := map[string]bool{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != ".." && (name == "perfbench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("found no repo packages")
	}
	for dir := range dirs {
		rel, err := filepath.Rel("..", dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg := "repro"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		if _, ok := layerOf[pkg]; !ok {
			t.Errorf("package %s has no layer in layerOf", pkg)
		}
	}
}

func TestStackLayerAttribution(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             repro/internal/rbs.(*Policy).Pick
             repro/internal/kernel.(*Kernel).dispatch
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   time.now (inline)
             main.(*timedPolicy).done
             repro/internal/kernel.(*Kernel).dispatch
-----------+-------------------------------------------------------
      50ms   repro.(*observerHub).OnDispatch
             repro/internal/kernel.(*Kernel).dispatch
-----------+-------------------------------------------------------
`)
	byLayer, total, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"rbs": 30 * time.Millisecond, "other": 10 * time.Millisecond,
		"bench": 10 * time.Millisecond, "realrate": 50 * time.Millisecond}
	if total != 100*time.Millisecond || len(byLayer) != len(want) {
		t.Fatalf("total %v, by layer %v; want 100ms, %v", total, byLayer, want)
	}
	for l, d := range want {
		if byLayer[l] != d {
			t.Errorf("layer %s: %v, want %v", l, byLayer[l], d)
		}
	}
}

// simulated returns the simulated-ledger metrics of a set of passes.
func simulated(passes [][]sample) map[string]float64 {
	host := map[string]bool{"host_epoch_ref": true, "host_ms_per_epoch": true, "setup_s": true, "peak_rss_mb": true}
	out := map[string]float64{}
	for k, v := range endToEndValues(passes).v {
		if !host[k] {
			out[k] = v
		}
	}
	return out
}

func TestSameSeedSameSimulatedMetrics(t *testing.T) {
	small := sloKnee
	small.machines = 4
	first, err := runPasses(sloMachines(small, 7), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runPasses(sloMachines(small, 7), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	a, b := simulated(first), simulated(again)
	if len(a) != len(b) {
		t.Fatalf("seed 7 twice: %v vs %v", a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("seed 7 twice: %s = %v, then %v", k, v, b[k])
		}
	}
	if err := samePass(first[0], again[0]); err != nil {
		t.Error(err)
	}

	other, err := runPasses(sloMachines(small, 8), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for i := range first[0] {
		differ = differ || first[0][i].offered != other[0][i].offered
	}
	if !differ {
		t.Error("every machine offers the same sessions under seeds 7 and 8: arrivals did not change with the seed")
	}
}

func TestForcedPanicCountsAsFailure(t *testing.T) {
	ok := func(id int) machine {
		return machine{id: id, replay: "ok", build: func(*probe) (instance, error) {
			return instance{offered: 10, run: func() (ledger, error) {
				return ledger{simTime: time.Second, started: 10, completed: 10, met: 10}, nil
			}}, nil
		}}
	}
	var crashed *ledger
	ms := []machine{ok(0), {id: 1, replay: "forced", build: func(*probe) (instance, error) {
		return instance{offered: 10, run: func() (ledger, error) {
			return *crashed, nil // nil dereference, as a program bug would
		}}, nil
	}}, ok(2)}
	passes, err := runPasses(ms, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	pass := passes[0]
	if pass[0].failed() || !pass[1].failed() || pass[2].failed() {
		t.Fatalf("failures = %v %v %v, want only machine 1", pass[0].failure, pass[1].failure, pass[2].failure)
	}
	if !strings.Contains(pass[1].failure, "TestForcedPanicCountsAsFailure") {
		t.Errorf("panic site %q does not name the panicking function", pass[1].failure)
	}
	vs := endToEndValues(passes)
	if got := vs.v["failed_share"]; got != 1.0/3 {
		t.Errorf("failed_share = %v, want 1/3", got)
	}
	if got := vs.v["session_goodput"]; got != 20.0/30 {
		t.Errorf("session_goodput = %v, want 20/30: the failed machine's sessions count as missed", got)
	}
	var res result
	count(&res, pass)
	if res.Attempted != 3 || res.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", res.Attempted, res.Failed)
	}
}

func TestStormCompositionMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("drains two 10k-thread machines")
	}
	s := runMachine(&[]machine{stormMachine(0)}[0], nil)
	if s.failed() {
		t.Fatal(s.failure)
	}
	if err := checkLedger(s.ledger); err != nil {
		t.Fatal(err)
	}
	if err := checkStormReference(s.ledger); err != nil {
		t.Fatal(err)
	}
}
