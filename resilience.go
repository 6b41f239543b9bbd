package bitgen

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"bitgen/internal/bgerr"
	"bitgen/internal/engine"
	"bitgen/internal/hybrid"
	"bitgen/internal/nfa"
	"bitgen/internal/obs"
	"bitgen/internal/resilience"
	"bitgen/internal/rx"
)

// Backend ladder rung names, in preference order. The bitstream engine is
// the primary; the hybrid Aho-Corasick decomposition and the Glushkov NFA
// simulation are independent implementations of the same match semantics,
// compiled from the same parsed patterns.
const (
	// BackendBitstream is the interleaved-bitstream GPU engine (primary).
	BackendBitstream = "bitstream"
	// BackendHybrid is the literal-prefilter + regional-confirmation
	// CPU engine (first fallback).
	BackendHybrid = "hybrid"
	// BackendNFA is the Glushkov NFA bitset simulation — the reference
	// implementation used for differential cross-checking (last resort).
	BackendNFA = "nfa"
)

// ResilienceOptions enable the self-healing backend ladder: when
// Options.Resilience is non-nil, Run/CountOnly/ScanReader requests that
// fail on the bitstream engine are retried (transient faults), fall over
// to the hybrid and NFA backends (backend faults), and a sampled fraction
// is differentially cross-checked against the NFA reference. The zero
// value selects the documented defaults. See Engine.Health for
// observability and DESIGN.md §8 for the full state machine.
type ResilienceOptions struct {
	// MaxRetries bounds same-backend retries of transient faults (failed
	// launches). Zero means 2; negative disables retries.
	MaxRetries int
	// RetryBaseDelay is the backoff base: retry k sleeps
	// base·2^k·jitter, jitter uniform in [0.5, 1.5). Zero means 1ms.
	RetryBaseDelay time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's circuit breaker. Zero means 3; negative disables.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects attempts
	// before admitting one half-open probe. Zero means 5s.
	BreakerCooldown time.Duration
	// CrossCheckFraction in [0,1] is the sampled share of calls
	// re-executed on the NFA reference and compared; a mismatch
	// quarantines the serving backend and returns the reference result.
	// Zero disables cross-checking.
	CrossCheckFraction float64
	// Seed drives the deterministic backoff jitter and sampling
	// decisions (reproducible schedules).
	Seed uint64
	// ForceBackend pins the ladder to a single named rung
	// (BackendBitstream, BackendHybrid or BackendNFA) — a debugging and
	// benchmarking mode: no fallback, no cross-checking.
	ForceBackend string
}

// Health is a point-in-time snapshot of the resilience ladder: per-backend
// circuit state and counters plus ladder-wide call/fallback/cross-check
// totals. The zero value is returned when resilience is disabled.
type Health = resilience.Health

// BackendHealth is one ladder rung's observable state.
type BackendHealth = resilience.BackendHealth

// BackendState is a circuit breaker position: resilience.Closed,
// resilience.Open or resilience.HalfOpen (String(): "closed", "open",
// "half-open").
type BackendState = resilience.State

// Health returns the resilience ladder snapshot. With resilience disabled
// (Options.Resilience == nil) it returns the zero Health.
func (e *Engine) Health() Health {
	if e.ladder == nil {
		return Health{}
	}
	return e.ladder.Health()
}

// ResetBackend closes the named backend's circuit breaker and clears its
// quarantine (an operator action after the underlying fault is fixed). It
// reports whether the name matched a ladder rung; with resilience
// disabled it always returns false.
func (e *Engine) ResetBackend(name string) bool {
	if e.ladder == nil {
		return false
	}
	return e.ladder.Reset(name)
}

// buildLadder compiles the fallback backends from the already-parsed
// unique patterns (duplicates were deduplicated at Compile) and assembles
// the resilience ladder.
func buildLadder(e *Engine, asts []rx.Node, ropts *ResilienceOptions) error {
	hybEngine, err := hybrid.Compile(e.unique, asts, hybrid.Options{Obs: e.obs})
	if err != nil {
		return fmt.Errorf("bitgen: resilience: compiling hybrid backend: %w", err)
	}
	autom, err := nfa.Build(e.unique, asts)
	if err != nil {
		return fmt.Errorf("bitgen: resilience: building NFA backend: %w", err)
	}
	backends := []resilience.Backend{
		&gpuBackend{e: e},
		&hybridBackend{h: hybEngine},
		&nfaBackend{n: autom, names: e.unique, obs: e.obs},
	}
	if ropts.ForceBackend != "" {
		var forced resilience.Backend
		for _, b := range backends {
			if b.Name() == ropts.ForceBackend {
				forced = b
			}
		}
		if forced == nil {
			return &UnsupportedError{Feature: fmt.Sprintf("resilience backend %q", ropts.ForceBackend)}
		}
		backends = []resilience.Backend{forced}
	}
	ladder, err := resilience.New(backends, resilience.Config{
		MaxRetries:         ropts.MaxRetries,
		RetryBaseDelay:     ropts.RetryBaseDelay,
		BreakerThreshold:   ropts.BreakerThreshold,
		BreakerCooldown:    ropts.BreakerCooldown,
		CrossCheckFraction: ropts.CrossCheckFraction,
		Seed:               ropts.Seed,
		Obs:                e.obs,
	})
	if err != nil {
		return err
	}
	e.ladder = ladder
	return nil
}

// runLadder serves one Run through the backend ladder and converts the
// outcome to the public Result. Modeled execution statistics are present
// only when the bitstream backend served the call; fallback rungs report
// match sets with zero Stats.
func (e *Engine) runLadder(ctx context.Context, input []byte) (*Result, error) {
	out, err := e.ladder.Run(ctx, input)
	if err != nil {
		return nil, err
	}
	var res *Result
	if inner, ok := out.Aux.(*engine.Result); ok {
		res = e.toResult(inner)
	} else {
		innerCounts := make(map[string]int, len(out.Positions))
		for name, pos := range out.Positions {
			innerCounts[name] = len(pos)
		}
		res = &Result{}
		res.Counts, res.IndexCounts = e.fanOutCounts(innerCounts)
		for name, pos := range out.Positions {
			idxs := e.indexesOf[name]
			for _, end := range pos {
				for _, idx := range idxs {
					res.Matches = append(res.Matches, Match{Pattern: name, Index: idx, End: end})
				}
			}
		}
		sortMatches(res.Matches)
	}
	res.Backend = out.Backend
	return res, nil
}

// gpuBackend adapts the bitstream engine. It reads e.inner at call time
// (not capture time) so hardening tests can swap in an injector-armed
// engine copy. Panic containment lives inside engine.RunContext.
type gpuBackend struct{ e *Engine }

func (g *gpuBackend) Name() string { return BackendBitstream }

func (g *gpuBackend) Run(ctx context.Context, input []byte) (map[string][]int, any, error) {
	inner, err := g.e.inner.RunContext(ctx, input)
	if err != nil {
		return nil, nil, err
	}
	// The contract's position map (patterns without matches omitted), for
	// cross-checks; matches are End-ordered, so each list is ascending.
	pos := make(map[string][]int)
	for _, m := range inner.Matches {
		name := g.e.rankNames[m.Rank]
		pos[name] = append(pos[name], int(m.End))
	}
	return pos, inner, nil
}

// hybridBackend adapts the hybrid Aho-Corasick engine, containing its
// panics as *InternalError so an invariant violation in the fallback
// falls through to the next rung instead of crashing the process.
type hybridBackend struct{ h *hybrid.Engine }

func (b *hybridBackend) Name() string { return BackendHybrid }

// ResidentBytes implements resilience.Sizer: the hybrid rung's compiled
// automata stay resident for the engine's lifetime.
func (b *hybridBackend) ResidentBytes() int64 { return b.h.SizeBytes() }

func (b *hybridBackend) Run(ctx context.Context, input []byte) (pos map[string][]int, aux any, err error) {
	defer func() {
		if r := recover(); r != nil {
			pos, aux = nil, nil
			err = &bgerr.InternalError{Op: "hybrid-scan", Group: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	res, err := b.h.ScanContext(ctx, input)
	if err != nil {
		return nil, nil, err
	}
	return res.MatchPositions(), nil, nil
}

// nfaBackend adapts the Glushkov NFA simulation (the reference rung),
// with the same panic containment as the hybrid rung.
type nfaBackend struct {
	n     *nfa.NFA
	names []string
	obs   *obs.Observer
}

func (b *nfaBackend) Name() string { return BackendNFA }

// ResidentBytes implements resilience.Sizer: the reference automaton's
// CSR tables stay resident for the engine's lifetime.
func (b *nfaBackend) ResidentBytes() int64 { return b.n.SizeBytes() }

func (b *nfaBackend) Run(ctx context.Context, input []byte) (pos map[string][]int, aux any, err error) {
	defer func() {
		if r := recover(); r != nil {
			pos, aux = nil, nil
			err = &bgerr.InternalError{Op: "nfa-simulate", Group: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	res, err := nfa.SimulateObserved(ctx, b.obs, b.n, input)
	if err != nil {
		return nil, nil, err
	}
	return res.MatchPositions(b.names), nil, nil
}
