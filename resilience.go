package bitgen

import (
	"cmp"
	"context"
	"fmt"
	"runtime/debug"
	"slices"

	"bitgen/internal/bgerr"
	"bitgen/internal/engine"
	"bitgen/internal/lower"
	"bitgen/internal/nfa"
	"bitgen/internal/rx"
)

// BackendNFA names the one backend an engine can be pinned to: the Glushkov
// NFA bitset simulation, the reference the bitstream engine is checked
// against.
const BackendNFA = "nfa"

// ResilienceOptions pin an engine to the NFA reference. Its one production
// caller is the repo benchmark's oracle, which compiles against this type;
// nothing serves through it. With Options.Resilience set, Run and CountOnly
// answer from one simulation of an NFA built over the unique patterns and
// every Result names it in Result.Backend; ScanReader and DecodeEngine
// refuse the engine or options with an *UnsupportedError. The
// bitstream engine is compiled beside the NFA, so the engine still saves,
// explains and reports its compiled state.
type ResilienceOptions struct {
	// ForceBackend must be BackendNFA; any other name, the empty one
	// included, fails Compile with an *UnsupportedError.
	ForceBackend string
}

// errPinned is the refusal of an entry point the NFA pin does not serve.
func errPinned(entry string) error {
	return &UnsupportedError{Feature: entry + " on an engine pinned to the NFA reference"}
}

// pinNFA applies Options.Resilience: it builds the pinned NFA over the
// unique patterns, in the bitstream engine's rank order so output i is the
// matches of rank i.
func (e *Engine) pinNFA(ropts *ResilienceOptions, regexes []lower.Regex) error {
	if ropts == nil {
		return nil
	}
	if ropts.ForceBackend != BackendNFA {
		return &UnsupportedError{Feature: fmt.Sprintf("resilience backend %q", ropts.ForceBackend)}
	}
	asts := make(map[string]rx.Node, len(regexes))
	for _, r := range regexes {
		asts[r.Name] = r.AST
	}
	nodes := make([]rx.Node, len(e.rankNames))
	for rank, name := range e.rankNames {
		nodes[rank] = asts[name]
	}
	n, err := nfa.Build(e.rankNames, nodes)
	if err != nil {
		return fmt.Errorf("bitgen: building NFA backend: %w", err)
	}
	e.ref = n
	return nil
}

// runNFA is a whole-input scan on the pinned NFA in the bitstream engine's
// result form: matches in (End, Rank) order and a count for every pattern.
// Stats stay zero — only the bitstream engine models GPU execution. A panic
// in the simulation is contained as an *InternalError.
func (e *Engine) runNFA(ctx context.Context, input []byte) (res *engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &bgerr.InternalError{Op: "nfa-simulate", Group: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	sim, err := nfa.SimulateObserved(ctx, e.obs, e.ref, input)
	if err != nil {
		return nil, err
	}
	var ms []engine.ScanMatch
	counts := make(map[string]int, len(e.rankNames))
	for rank, s := range sim.Outputs {
		for p := s.NextSetBit(0); p >= 0; p = s.NextSetBit(p + 1) {
			ms = append(ms, engine.ScanMatch{End: int64(p), Rank: int32(rank)})
		}
		counts[e.rankNames[rank]] = s.Popcount()
	}
	slices.SortFunc(ms, func(a, b engine.ScanMatch) int {
		return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Rank, b.Rank))
	})
	return &engine.Result{Matches: ms, MatchCounts: counts, TotalMatches: int64(len(ms))}, nil
}
