package bitgen

import (
	"cmp"
	"context"
	"fmt"
	"runtime/debug"
	"slices"

	"bitgen/internal/bgerr"
	"bitgen/internal/bitstream"
	"bitgen/internal/engine"
	"bitgen/internal/hybrid"
	"bitgen/internal/nfa"
	"bitgen/internal/rx"
)

// Backend names: the matchers an engine can be pinned to. The bitstream
// engine is the paper's; the hybrid Aho-Corasick decomposition and the
// Glushkov NFA simulation are its comparison baselines — independent
// implementations of the same match semantics, compiled from the same parsed
// patterns — and the NFA is the reference the tests check every engine
// against.
const (
	// BackendBitstream is the interleaved-bitstream GPU engine.
	BackendBitstream = "bitstream"
	// BackendHybrid is the literal-prefilter + regional-confirmation CPU
	// engine.
	BackendHybrid = "hybrid"
	// BackendNFA is the Glushkov NFA bitset simulation, the reference.
	BackendNFA = "nfa"
)

// ResilienceOptions pin an engine to one backend: with Options.Resilience
// set, Run, CountOnly and ScanReader run on the pinned backend and every
// Result names it in Result.Backend. RunMulti models a combined MIMD launch
// and always runs the bitstream engine. The bitstream engine is compiled
// whatever the pin — it is what snapshots persist and RunMulti launches — and
// a hybrid or NFA pin compiles that one automaton beside it.
type ResilienceOptions struct {
	// ForceBackend names the backend: BackendBitstream (what empty
	// selects), BackendHybrid or BackendNFA. Any other name fails Compile
	// with an *UnsupportedError.
	ForceBackend string
}

// fallback is the hybrid or NFA automaton an engine is pinned to.
type fallback struct {
	// op is the *InternalError Op of a panic contained in run.
	op string
	// run matches data and returns each pattern's match end positions as a
	// stream keyed by pattern string; a pattern may be absent when it has
	// no match.
	run func(ctx context.Context, data []byte) (map[string]*bitstream.Stream, error)
	// resident is the automaton's compiled size, kept for the engine's
	// lifetime.
	resident int64
}

// pinBackend applies Options.Resilience: it records the pinned backend and,
// for a hybrid or NFA pin, compiles that automaton — and only that one — over
// the unique patterns, whose ASTs parse supplies on demand (Compile has them;
// a loaded snapshot re-parses).
func (e *Engine) pinBackend(ropts *ResilienceOptions, parse func() ([]rx.Node, error)) error {
	if ropts == nil {
		return nil
	}
	e.backend = cmp.Or(ropts.ForceBackend, BackendBitstream)
	switch e.backend {
	case BackendBitstream:
		return nil
	case BackendHybrid, BackendNFA:
	default:
		return &UnsupportedError{Feature: fmt.Sprintf("resilience backend %q", ropts.ForceBackend)}
	}
	asts, err := parse()
	if err != nil {
		return err
	}
	names, o := e.unique, e.obs
	if e.backend == BackendHybrid {
		h, err := hybrid.Compile(names, asts, hybrid.Options{Obs: o})
		if err != nil {
			return fmt.Errorf("bitgen: compiling hybrid backend: %w", err)
		}
		e.fallback = &fallback{op: "hybrid-scan", resident: h.SizeBytes(),
			run: func(ctx context.Context, data []byte) (map[string]*bitstream.Stream, error) {
				res, err := h.ScanContext(ctx, data)
				if err != nil {
					return nil, err
				}
				return res.Outputs, nil
			}}
		return nil
	}
	n, err := nfa.Build(names, asts)
	if err != nil {
		return fmt.Errorf("bitgen: building NFA backend: %w", err)
	}
	e.fallback = &fallback{op: "nfa-simulate", resident: n.SizeBytes(),
		run: func(ctx context.Context, data []byte) (map[string]*bitstream.Stream, error) {
			res, err := nfa.SimulateObserved(ctx, o, n, data)
			if err != nil {
				return nil, err
			}
			out := make(map[string]*bitstream.Stream, len(res.Outputs))
			for i, s := range res.Outputs {
				out[names[i]] = s
			}
			return out, nil
		}}
	return nil
}

// scanFallback runs the pinned automaton over data — a whole input, or one
// streamed chunk whose first byte sits at absolute offset — and appends to
// dst the matches ending at absolute offsets ≥ newFrom, as the (End, Rank)
// records a ScanSession produces and in its order. A panic in the automaton
// is contained as an *InternalError.
func (e *Engine) scanFallback(ctx context.Context, data []byte, offset, newFrom int64, dst []engine.ScanMatch) (ms []engine.ScanMatch, err error) {
	defer func() {
		if r := recover(); r != nil {
			ms, err = dst, &bgerr.InternalError{Op: e.fallback.op, Group: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	streams, err := e.fallback.run(ctx, data)
	if err != nil {
		return dst, err
	}
	start := len(dst)
	for rank, name := range e.rankNames {
		s := streams[name]
		if s == nil {
			continue
		}
		for p := s.NextSetBit(int(newFrom - offset)); p >= 0; p = s.NextSetBit(p + 1) {
			dst = append(dst, engine.ScanMatch{End: offset + int64(p), Rank: int32(rank)})
		}
	}
	slices.SortFunc(dst[start:], func(a, b engine.ScanMatch) int {
		return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Rank, b.Rank))
	})
	return dst, nil
}

// runFallback is a whole-input scan on the pinned automaton in the bitstream
// engine's result form: matches in (End, Rank) order and a count for every
// pattern. Stats stay zero — only the bitstream engine models GPU execution.
func (e *Engine) runFallback(ctx context.Context, input []byte) (*engine.Result, error) {
	ms, err := e.scanFallback(ctx, input, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int, len(e.rankNames))
	for _, name := range e.rankNames {
		counts[name] = 0
	}
	for _, m := range ms {
		counts[e.rankNames[m.Rank]]++
	}
	return &engine.Result{Matches: ms, MatchCounts: counts, TotalMatches: int64(len(ms))}, nil
}
