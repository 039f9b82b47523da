package realrate

import (
	"testing"
	"time"

	"repro/internal/kernel"
)

// TestDefaultControlLoopIsOneShard pins what the zero CtlPlaneConfig
// builds: one periodic shard that samples every job every tick, run by
// the paper's unpinned "controller" thread, whose CPU time is exactly the
// controller overhead the system reports.
func TestDefaultControlLoopIsOneShard(t *testing.T) {
	sys := NewSystem(Config{})
	if _, err := sys.Spawn("hog", HogProgram(400_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("rt", HogProgram(400_000), Reserve(100, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	sys.Run(time.Second)

	if got := sys.ControllerModeName(); got != "periodic" {
		t.Errorf("mode %q, want periodic", got)
	}
	stats := sys.ShardStats()
	if len(stats) != 1 || sys.ControlShards() != 1 {
		t.Fatalf("%d shard stats, %d shards; want one", len(stats), sys.ControlShards())
	}
	// Sampled counts every visited job, the reservation holder included:
	// both jobs, every tick.
	if st := stats[0]; st.Skipped != 0 || st.Ticks == 0 || st.Sampled != 2*st.Ticks {
		t.Errorf("shard stat %+v: want both jobs sampled every tick, nothing skipped", st)
	}
	var ctl *kernel.Thread
	for _, th := range sys.kern.Threads() {
		if th.Name() == "controller" {
			if ctl != nil {
				t.Fatal("two controller threads")
			}
			ctl = th
		}
	}
	if ctl == nil {
		t.Fatal("no thread named controller")
	}
	if ctl.Affinity() != kernel.AffinityAny {
		t.Errorf("controller thread pinned to CPU %d, want unpinned", ctl.Affinity())
	}
	cpu := sys.ControllerCPU()
	if cpu <= 0 || cpu != time.Duration(ctl.CPUTime()) {
		t.Errorf("ControllerCPU %v, controller thread CPU %v; want equal and positive", cpu, time.Duration(ctl.CPUTime()))
	}
}
