package engine

import (
	"fmt"
	"sync"

	"bitgen/internal/arena"
	"bitgen/internal/kernel"
	"bitgen/internal/transpose"
)

// runner is the pooled per-call state behind the one-shot Run path: a
// reusable transpose basis plus one kernel session per CTA group. Before
// runners, every Run rebuilt the plan, liveness, barrier schedule and all
// stream buffers from scratch (~700 allocations per call); pooling them
// makes repeated one-shot runs nearly allocation-free on the kernel side
// while keeping Run's semantics — the pool only ever hands back runners in
// the same state a fresh one starts in (see putRunner).
type runner struct {
	basis  *transpose.Basis
	sess   []*kernel.Session
	shared *kernel.Session // computes the shared-class streams; nil without any
}

// initRunPool installs a fresh runner pool. Called at construction and by
// WithInjector: sessions capture the engine's fault injector, so an engine
// copy with a different injector must not share pooled runners.
//
// Runner sessions borrow from a private per-engine arena, not
// arena.Default: a pooled runner retains its buffers indefinitely, which
// would read as a leak to anything auditing the global arena's balance
// (the serving layer does, after every aborted scan).
func (e *Engine) initRunPool() {
	e.runPool = &sync.Pool{}
	e.runArena = &arena.Arena{}
}

// kernelConfig is the one kernel configuration this engine launches with,
// for Run and ScanSession alike, so both model the same kernel. lane is the
// trace lane the launch's spans land on.
func (e *Engine) kernelConfig(lane int) kernel.Config {
	return kernel.Config{
		Grid:               e.cfg.Grid,
		Mode:               e.cfg.Mode,
		HonorGuards:        e.cfg.ZeroBlockSkipping,
		SharedInputCTAs:    len(e.groups),
		MaxWhileIterations: e.cfg.MaxWhileIterations,
		Inject:             e.cfg.Inject,
		Obs:                e.cfg.Obs,
		TraceLane:          lane,
	}
}

// getRunner returns a pooled runner or builds one. Construction cannot fail
// for an engine that compiled — the programs already validated — but the
// error is surfaced rather than swallowed for defense in depth.
func (e *Engine) getRunner() (*runner, error) {
	if e.runPool != nil {
		if r, ok := e.runPool.Get().(*runner); ok {
			return r, nil
		}
	}
	shared, err := e.newSharedSession(e.runArena)
	if err != nil {
		return nil, err
	}
	r := &runner{basis: &transpose.Basis{}, shared: shared}
	for gi := range e.groups {
		// One trace lane per CTA group: concurrent launches render as
		// parallel tracks in the trace viewer.
		ks, err := kernel.NewSession(e.groups[gi].Prog(), e.kernelConfig(1+gi), e.runArena)
		if err != nil {
			return nil, fmt.Errorf("engine: group %d: %w", gi, err)
		}
		r.sess = append(r.sess, ks)
	}
	return r, nil
}

// putRunner returns a runner to the pool — unless it is no longer
// indistinguishable from a fresh one. A runner whose sessions took a
// materialization fallback would carry that fallback (and its modeled-time
// delta) into an unrelated future Run, where a fresh one-shot would not;
// such runners are dropped and rebuilt on demand. Callers also skip the
// put entirely on errors and contained panics, for the same reason.
func (e *Engine) putRunner(r *runner) {
	if e.runPool == nil {
		return
	}
	for _, ks := range r.sess {
		if ks.Fallbacks() > 0 {
			return
		}
	}
	e.runPool.Put(r)
}
