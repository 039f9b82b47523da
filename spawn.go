package realrate

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// SpawnOption configures one Spawn call by filling in its SpawnReq. The
// class options — Reserve, Aperiodic, RealRate, Interactive, Miscellaneous,
// Unmanaged, InJob — are mutually exclusive; omitting them spawns a
// miscellaneous thread.
type SpawnOption func(*SpawnReq) error

// setClass records a class option, rejecting a second one; opt names the
// option for the conflict error.
func (r *SpawnReq) setClass(c SpawnClass, opt string) error {
	if r.classOpt != "" {
		return fmt.Errorf("realrate: conflicting spawn options %s and %s", r.classOpt, opt)
	}
	r.Class, r.classOpt = c, opt
	return nil
}

// Reserve requests a hard reservation: proportion in parts-per-thousand
// over the given period (the paper's real-time class). Admission control
// may reject the request, in which case Spawn returns the error and the
// thread is not created.
func Reserve(proportion int, period time.Duration) SpawnOption {
	return func(r *SpawnReq) error {
		r.Proportion, r.Period = proportion, period
		return r.setClass(SpawnReserve, "Reserve")
	}
}

// Aperiodic requests an aperiodic real-time reservation: known proportion,
// no period; the controller assigns the 30 ms default.
func Aperiodic(proportion int) SpawnOption {
	return func(r *SpawnReq) error {
		r.Proportion = proportion
		return r.setClass(SpawnAperiodic, "Aperiodic")
	}
}

// RealRate declares a real-rate thread: the controller estimates its
// proportion (and, with period 0, its period) from the given progress
// sources. At least one source is required.
func RealRate(period time.Duration, sources ...ProgressSource) SpawnOption {
	return func(r *SpawnReq) error {
		r.Period, r.Sources = period, sources
		return r.setClass(SpawnRealRate, "RealRate")
	}
}

// Interactive declares a tty-server thread: small period, proportion
// estimated from its bursts.
func Interactive() SpawnOption {
	return func(r *SpawnReq) error { return r.setClass(SpawnInteractive, "Interactive") }
}

// Miscellaneous declares a thread with no information at all (the default):
// the constant-pressure heuristic grows its allocation until satisfied or
// squished.
func Miscellaneous() SpawnOption {
	return func(r *SpawnReq) error { return r.setClass(SpawnMisc, "Miscellaneous") }
}

// Unmanaged spawns the thread outside the controller entirely; it runs in
// the leftover CPU below every registered thread, like unregistered jobs
// under the prototype's default Linux scheduler.
func Unmanaged() SpawnOption {
	return func(r *SpawnReq) error { return r.setClass(SpawnUnmanaged, "Unmanaged") }
}

// InJob spawns the thread as a member of th's job: the paper's "job is a
// collection of cooperating threads". The job's allocation is split across
// its members; its progress and usage are their combined metrics and CPU.
func InJob(th *Thread) SpawnOption {
	return func(r *SpawnReq) error {
		r.Job = th
		return r.setClass(SpawnMember, "InJob")
	}
}

// Importance sets the weighted-fair-share weight (default 1). Higher
// importance loses less under overload but can never starve others.
// Ignored under baseline policies, which have no squish.
func Importance(w float64) SpawnOption {
	return func(r *SpawnReq) error {
		if w <= 0 {
			return fmt.Errorf("realrate: importance must be positive, got %v", w)
		}
		r.Importance = w
		return nil
	}
}

// Tickets assigns a share count to the thread under a ticket-based policy
// (Stride or Lottery). Spawning with Tickets under any other policy is an
// error.
func Tickets(n int64) SpawnOption {
	return func(r *SpawnReq) error {
		if n <= 0 {
			return fmt.Errorf("realrate: tickets must be positive, got %d", n)
		}
		r.tickets = n
		return nil
	}
}

// Nice sets the thread's nice value under the Linux baseline policy.
// Spawning with Nice under any other policy is an error.
func Nice(n int) SpawnOption {
	return func(r *SpawnReq) error {
		r.nice, r.niceSet = n, true
		return nil
	}
}

// Affinity pins the thread to one CPU of a multi-CPU machine (see
// Config.CPUs): it is placed there, only ever dispatched there, and never
// migrated by work-pull. Spawning with a CPU outside [0, Config.CPUs) is
// an error. Composes with every class option.
//
// Pinning trades load balance for placement control: a pinned thread
// cannot be pulled to an idle CPU, so a pile-up behind another pinned
// thread is the caller's to resolve.
func Affinity(cpu int) SpawnOption {
	return func(r *SpawnReq) error {
		if r.placed {
			return fmt.Errorf("realrate: conflicting Affinity/AnyCPU options")
		}
		r.Pinned, r.CPU, r.placed = true, cpu, true
		return nil
	}
}

// AnyCPU declares the thread runnable on every CPU — the default. It
// exists to make the placement choice explicit at call sites that mix
// pinned and unpinned spawns.
func AnyCPU() SpawnOption {
	return func(r *SpawnReq) error {
		if r.placed {
			return fmt.Errorf("realrate: conflicting Affinity/AnyCPU options")
		}
		r.Pinned, r.placed = false, true
		return nil
	}
}

// Spawn creates a thread running prog, classified by the given options
// (see the paper's Figure 2 taxonomy). With no class option the thread is
// miscellaneous. The options fill a SpawnReq, which SpawnFrom then
// validates and dispatches.
//
// Under a baseline policy (see Config.Policy) there is no feedback
// controller: every class spawns a plain thread, and a Reserve or
// Aperiodic proportion degrades to the nearest share hint the policy can
// express (tickets equal to the requested ppt under Stride and Lottery;
// nothing under Linux and RoundRobin).
func (s *System) Spawn(name string, prog Program, opts ...SpawnOption) (*Thread, error) {
	var req SpawnReq
	for _, opt := range opts {
		if err := opt(&req); err != nil {
			return nil, err
		}
	}
	return s.SpawnFrom(name, prog, &req)
}

// SpawnClass selects the Figure 2 taxonomy slot of a SpawnReq. The zero
// value is miscellaneous, mirroring Spawn with no class option.
type SpawnClass int

// SpawnReq classes, one per Spawn class option.
const (
	// SpawnMisc declares nothing; the constant-pressure heuristic grows
	// the thread's allocation until satisfied or squished (the default).
	SpawnMisc SpawnClass = iota
	// SpawnReserve requests a hard reservation of Proportion over Period.
	SpawnReserve
	// SpawnAperiodic requests Proportion with the default period.
	SpawnAperiodic
	// SpawnRealRate has proportion (and, with Period 0, period) estimated
	// from Sources.
	SpawnRealRate
	// SpawnInteractive declares a tty-server thread.
	SpawnInteractive
	// SpawnUnmanaged runs outside the controller entirely.
	SpawnUnmanaged
	// SpawnMember joins the thread to Job's existing job.
	SpawnMember
)

// SpawnReq is one spawn request: the struct the Spawn options fill, and
// the argument of SpawnFrom for allocation-sensitive callers — an
// open-loop storm driver can hold one SpawnReq (and its Sources backing
// array) and reuse it for every admission, where the variadic Spawn
// builds an options slice and a closure per option on each call. A field
// the chosen class does not use is ignored.
type SpawnReq struct {
	// Class selects the taxonomy slot; the zero value is miscellaneous.
	Class SpawnClass
	// Proportion (ppt) applies to SpawnReserve and SpawnAperiodic.
	Proportion int
	// Period applies to SpawnReserve (required) and SpawnRealRate
	// (0 lets the controller assign it).
	Period time.Duration
	// Sources are the progress sources of a SpawnRealRate thread.
	Sources []ProgressSource
	// Job is the primary thread whose job a SpawnMember thread joins.
	Job *Thread
	// Importance, when nonzero, sets the weighted-fair-share weight.
	Importance float64
	// Pinned pins the thread to CPU (Pinned false ignores CPU and lets
	// the machine place and migrate the thread).
	Pinned bool
	CPU    int

	// The rest is set only by options. classOpt names the class option
	// already given and placed records an Affinity/AnyCPU, so a second one
	// is a conflict; tickets (0 = unset) and nice carry the baseline-only
	// options.
	classOpt string
	placed   bool
	tickets  int64
	nice     int
	niceSet  bool
}

// SpawnFrom creates a thread running prog, classified by req. It is
// Spawn for hot paths: no option closures, no variadic slice, and a
// request that never escapes to the heap.
func (s *System) SpawnFrom(name string, prog Program, req *SpawnReq) (*Thread, error) {
	switch {
	case req.Class < SpawnMisc || req.Class > SpawnMember:
		return nil, fmt.Errorf("realrate: unknown SpawnClass %d", req.Class)
	case req.Class == SpawnRealRate && len(req.Sources) == 0:
		return nil, fmt.Errorf("realrate: RealRate needs at least one progress source")
	case req.Class == SpawnMember && req.Job == nil:
		return nil, fmt.Errorf("realrate: InJob needs a job thread")
	case req.Importance < 0:
		return nil, fmt.Errorf("realrate: importance must be positive, got %v", req.Importance)
	case req.Pinned && req.CPU < 0:
		return nil, fmt.Errorf("realrate: Affinity(%d): CPU must be non-negative", req.CPU)
	case req.Pinned && req.CPU >= s.kern.NumCPUs():
		return nil, fmt.Errorf("realrate: Affinity(%d) outside the machine's %d CPUs", req.CPU, s.kern.NumCPUs())
	}
	affinity := kernel.AffinityAny
	if req.Pinned {
		affinity = req.CPU
	}
	if s.ctl == nil {
		return s.spawnBaseline(name, prog, req, affinity)
	}
	if req.tickets != 0 || req.niceSet {
		return nil, fmt.Errorf("realrate: Tickets/Nice apply to baseline policies, not %s", s.policy.Name())
	}

	// Overload backpressure: at the governor's throttle rung and above,
	// new controller-managed admissions are refused with a typed
	// *OverloadError carrying a retry-after hint — the caller gets
	// backpressure instead of joining an already-saturated squish.
	// Unmanaged threads (outside the controller) and members joining an
	// existing job are not new admissions.
	if req.Class != SpawnUnmanaged && req.Class != SpawnMember {
		if err := s.ctl.AdmissionVeto(); err != nil {
			ev := AdmissionEvent{Time: s.Now(), Accepted: false, Err: err}
			switch req.Class {
			case SpawnReserve:
				ev.Requested, ev.Period = req.Proportion, req.Period
			case SpawnAperiodic:
				ev.Requested = req.Proportion
			case SpawnRealRate:
				ev.Period = req.Period
			}
			s.fireAdmission(ev)
			return nil, err
		}
	}

	if req.Class == SpawnMember {
		lead := req.Job
		if lead.exited {
			return nil, fmt.Errorf("realrate: cannot add members to job of exited thread %q", lead.name)
		}
		if lead.job == nil {
			return nil, fmt.Errorf("realrate: cannot add members to an unmanaged thread")
		}
		if req.Importance != 0 {
			// Importance belongs to the whole job, not one member; silently
			// reweighting the job here would be surprising.
			return nil, fmt.Errorf("realrate: Importance cannot be combined with InJob; set it on the job's primary thread")
		}
		member := s.spawn(name, prog, affinity)
		member.job = lead.job
		s.ctl.AddMember(member.job, member.t)
		return member, nil
	}

	th := s.spawn(name, prog, affinity)
	switch req.Class {
	case SpawnReserve:
		job, err := s.ctl.AddRealTime(th.t, req.Proportion, sim.FromStd(req.Period))
		s.fireAdmission(AdmissionEvent{
			Time: s.Now(), Thread: th, Requested: req.Proportion, Period: req.Period,
			Accepted: err == nil, Err: err,
		})
		if err != nil {
			// Retire the just-created thread; it never ran.
			s.removeThread(th)
			return nil, err
		}
		th.job = job
	case SpawnAperiodic:
		job, err := s.ctl.AddAperiodicRealTime(th.t, req.Proportion)
		s.fireAdmission(AdmissionEvent{
			Time: s.Now(), Thread: th, Requested: req.Proportion,
			Accepted: err == nil, Err: err,
		})
		if err != nil {
			s.removeThread(th)
			return nil, err
		}
		th.job = job
	case SpawnRealRate:
		for _, src := range req.Sources {
			s.registerSource(th, src)
		}
		th.job = s.ctl.AddRealRate(th.t, sim.FromStd(req.Period))
	case SpawnInteractive:
		th.job = s.ctl.AddInteractive(th.t)
	case SpawnUnmanaged:
		// Outside the controller: job stays nil.
	default: // SpawnMisc
		th.job = s.ctl.AddMiscellaneous(th.t)
	}
	if req.Importance != 0 {
		if th.job == nil {
			s.removeThread(th)
			return nil, fmt.Errorf("realrate: importance needs a controller-managed thread")
		}
		s.ctl.SetImportance(th.job, req.Importance)
	}
	return th, nil
}

// spawnBaseline creates a thread under a controller-less baseline policy,
// mapping the request to whatever the policy can express.
func (s *System) spawnBaseline(name string, prog Program, req *SpawnReq, affinity int) (*Thread, error) {
	if req.Class == SpawnMember {
		return nil, fmt.Errorf("realrate: policy %s has no jobs; spawn a plain thread instead", s.policy.Name())
	}
	th := s.spawn(name, prog, affinity)
	if req.Class == SpawnRealRate {
		for _, src := range req.Sources {
			// Progress sources still register, so tools can sample pressure
			// even though no controller consumes it.
			s.registerSource(th, src)
		}
	}
	if req.tickets != 0 {
		tp, ok := s.ticketPolicy()
		if !ok {
			s.removeThread(th)
			return nil, fmt.Errorf("realrate: policy %s does not take tickets", s.policy.Name())
		}
		tp.SetTickets(th.t, req.tickets)
	} else if (req.Class == SpawnReserve || req.Class == SpawnAperiodic) && req.Proportion > 0 {
		// Degrade a reservation to a proportional share where possible.
		if tp, ok := s.ticketPolicy(); ok {
			tp.SetTickets(th.t, int64(req.Proportion))
		}
	}
	if req.niceSet {
		lp, ok := s.policy.(interface{ SetNice(*kernel.Thread, int) })
		if !ok {
			s.removeThread(th)
			return nil, fmt.Errorf("realrate: policy %s does not take nice values", s.policy.Name())
		}
		lp.SetNice(th.t, req.nice)
	}
	return th, nil
}

// ticketPolicy returns the underlying ticket-share setter when the
// system's policy is stride or lottery.
func (s *System) ticketPolicy() (interface{ SetTickets(*kernel.Thread, int64) }, bool) {
	tp, ok := s.policy.(interface{ SetTickets(*kernel.Thread, int64) })
	return tp, ok
}
