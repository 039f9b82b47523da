package realrate

import (
	"time"

	"repro/internal/core"
)

// ControllerMode selects how the feedback controller samples jobs.
type ControllerMode int

const (
	// ControllerPeriodic is the paper's sweep: every job sampled every
	// control interval. The default.
	ControllerPeriodic ControllerMode = iota
	// ControllerEventDriven samples a job only when its progress signal
	// moved past a threshold since the last sample, or when the staleness
	// bound elapsed. Idle jobs cost almost nothing.
	ControllerEventDriven
)

func (m ControllerMode) String() string {
	if m == ControllerEventDriven {
		return "event"
	}
	return "periodic"
}

// CtlPlaneConfig configures the controller's control loop. The zero value
// is one periodic shard: the paper's single 100 Hz controller thread, with
// its byte-identical dispatch schedule. More shards split the loop across
// staggered per-CPU threads for machines with very many jobs, and
// event-driven mode skips jobs whose progress signal is quiet.
type CtlPlaneConfig struct {
	// Mode selects periodic or event-driven sampling.
	Mode ControllerMode
	// Shards splits the controller across this many staggered shard
	// threads, each owning the jobs resident on its CPU (thread-hashed on
	// a uniprocessor). 0 means 1; the count is clamped to 64 and to the
	// controller reservation's proportion (50 ppt by default), so each
	// shard holds at least 1 ppt of it.
	Shards int
	// Threshold is the raw-pressure delta (fraction of a queue) that makes
	// a changed signal worth re-sampling in event-driven mode. 0 means
	// 0.05.
	Threshold float64
	// MaxStaleness bounds how long event-driven mode may skip re-sampling
	// any job. 0 means 10 control intervals.
	MaxStaleness time.Duration
}

// ControllerModeName returns the active sampling mode: "periodic",
// "event", or "none" under a baseline policy with no controller.
func (s *System) ControllerModeName() string {
	if s.ctl == nil {
		return "none"
	}
	if s.ctl.Config().EventDriven {
		return ControllerEventDriven.String()
	}
	return ControllerPeriodic.String()
}

// ControlShards returns the shard count of the control loop, 0 under
// baseline policies.
func (s *System) ControlShards() int {
	if s.ctl == nil {
		return 0
	}
	return s.ctl.Shards()
}

// ShardStat is one control shard's counters. Sampled counts every visited
// job, reservation holders included.
type ShardStat = core.ShardStat

// ShardStats returns per-shard control-loop counters, nil under baseline
// policies.
func (s *System) ShardStats() []ShardStat {
	if s.ctl == nil {
		return nil
	}
	return s.ctl.ShardStats()
}
