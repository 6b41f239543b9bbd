package gpusim

import (
	"fmt"

	"bitgen/internal/bgerr"
	"bitgen/internal/faultinject"
)

// CheckLaunch consults the fault injector at the simulated kernel-launch
// boundary for one CTA group. On a real device this is where a launch can
// fail asynchronously (sticky context errors, ECC events, OOM at launch);
// the engine calls it before dispatching each group so injected mid-launch
// failures exercise the same error path. A nil injector never fails.
//
// Launch failures are classified transient (errors.Is(err, bgerr.
// ErrTransient)): on a real device a failed launch is an environmental
// fault worth retrying, unlike a kernel invariant violation or a resource
// refusal.
func CheckLaunch(inj *faultinject.Injector, cta int) error {
	if err := inj.Err(faultinject.LaunchFail); err != nil {
		return bgerr.Transient(fmt.Errorf("gpusim: launch of CTA group %d failed: %w", cta, err))
	}
	return nil
}
