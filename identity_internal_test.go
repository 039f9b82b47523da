// The thread-identity oracle. A public handle lives in its kernel
// thread's User field and nowhere else — there is no side index to fall
// out of step with — so the oracle checks the two agree both ways, and
// that the slot-indexed side tables stay inside the kernel's slots.
package realrate

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
)

// checkIdentity reports the first breach of the identity invariants:
//   - no exited kernel thread still carries a handle in User;
//   - every handle found in User points back to that kernel thread and
//     has not exited;
//   - every live handle among handles is its kernel thread's User;
//   - no per-thread slot table is longer than the kernel's slot count.
func checkIdentity(sys *System, handles []*Thread) error {
	for _, kt := range sys.kern.Threads() {
		th := handleOf(kt)
		switch {
		case th == nil:
		case kt.State() == kernel.StateExited:
			return fmt.Errorf("exited kernel thread %v still carries handle %q", kt, th.Name())
		case th.t != kt || th.Exited():
			return fmt.Errorf("kernel thread %v carries handle %q that does not point back to it", kt, th.Name())
		}
	}
	for _, th := range handles {
		if !th.Exited() && th.t.User != th {
			return fmt.Errorf("live handle %q is not its kernel thread's User (%v)", th.Name(), th.t.User)
		}
	}
	slots := sys.kern.Slots()
	if n := sys.reg.Slots(); n > slots {
		return fmt.Errorf("progress slot table holds %d slots, kernel carved %d", n, slots)
	}
	if sys.ctl != nil && sys.ctl.Slots() > slots {
		return fmt.Errorf("controller slot table holds %d slots, kernel carved %d", sys.ctl.Slots(), slots)
	}
	return nil
}

// keepUserOnExit is the negative seam: an observer whose OnExit puts the
// handle back into its kernel thread's User, as an exit path that skipped
// clearing it would leave it.
type keepUserOnExit struct{ NopObserver }

func (keepUserOnExit) OnExit(_ time.Duration, th *Thread) { th.t.User = th }

// identityStorm runs a short churn storm with recycling off, so exited
// kernel threads stay listed where the oracle can inspect them.
func identityStorm(t *testing.T, seam bool) (*System, []*Thread) {
	t.Helper()
	sys := NewSystem(Config{})
	disableRecycling(sys)
	if seam {
		sys.Observe(keepUserOnExit{})
	}
	var handles []*Thread
	sys.Every(10*time.Millisecond, func(time.Duration) {
		th, err := sys.Spawn("w", churnProg(2), Miscellaneous())
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, th)
	})
	sys.Run(500 * time.Millisecond)
	exited := 0
	for _, th := range handles {
		if th.Exited() {
			exited++
		}
	}
	if exited == 0 {
		t.Fatal("storm retired no thread: the oracle would check nothing")
	}
	return sys, handles
}

// TestIdentityOracle is the positive half: the real exit path clears User,
// so the oracle passes.
func TestIdentityOracle(t *testing.T) {
	sys, handles := identityStorm(t, false)
	if err := checkIdentity(sys, handles); err != nil {
		t.Fatal(err)
	}
}

// TestIdentityOracleCatchesStaleUser is the negative half: with the seam
// restoring User after exit, the oracle must fail — and so must it when a
// live handle's kernel thread stops naming it.
func TestIdentityOracleCatchesStaleUser(t *testing.T) {
	sys, handles := identityStorm(t, true)
	if err := checkIdentity(sys, handles); err == nil {
		t.Fatal("oracle passed with exited kernel threads still carrying their handles")
	}

	sys, handles = identityStorm(t, false)
	live := handles[len(handles)-1]
	if live.Exited() {
		t.Fatal("newest handle already exited")
	}
	live.t.User = nil
	if err := checkIdentity(sys, handles); err == nil {
		t.Fatal("oracle passed with a live handle missing from its kernel thread")
	}
}
