package nfa

import (
	"context"
	"math/bits"

	"bitgen/internal/bgerr"
	"bitgen/internal/bitstream"
	"bitgen/internal/obs"
)

// SimStats counts the dynamic work of an NFA simulation — the quantities
// the ngAP cost model consumes.
type SimStats struct {
	// Symbols is the number of input bytes processed.
	Symbols int64
	// Activations is the total number of state activations (sum of
	// frontier sizes after each symbol).
	Activations int64
	// FollowFetches is the number of follow-list expansions (one per
	// active state per symbol): each is an irregular memory access on a
	// real automata engine.
	FollowFetches int64
	// MaxFrontier is the peak number of simultaneously active states.
	MaxFrontier int
	// Matches is the total number of match events recorded.
	Matches int64
}

// AvgFrontier returns the mean number of active states per symbol.
func (s *SimStats) AvgFrontier() float64 {
	if s.Symbols == 0 {
		return 0
	}
	return float64(s.Activations) / float64(s.Symbols)
}

// SimResult holds per-regex match streams plus work counters.
type SimResult struct {
	// Outputs[r] marks the end positions of matches of regex r,
	// all-match semantics (identical to the bitstream engine's outputs).
	Outputs []*bitstream.Stream
	Stats   SimStats
}

// simCheckEvery is how many input bytes simulate processes between
// context checks: frequent enough that a deadline interrupts promptly,
// cheap enough (one masked compare per byte) to be invisible on the scan
// hot path.
const simCheckEvery = 64 << 10

// Simulate runs the NFA over the input with the start state persistently
// active (unanchored matching) and records every match end position. It is
// the repo's independent matching oracle: package-level tests cross-check
// it against the bitstream pipeline.
func Simulate(n *NFA, input []byte) *SimResult {
	res, _ := simulate(nil, n, input)
	return res
}

// SimulateObserved is Simulate honoring a context — cancellation is
// observed every simCheckEvery input bytes and returns an error
// satisfying errors.Is(err, bgerr.ErrCanceled) — wrapped in an
// "nfa-simulate" span carrying the SimStats work counters as arguments.
// It is what an engine pinned to the NFA reference runs
// (bitgen.BackendNFA). A nil observer adds nothing to the scan path.
func SimulateObserved(ctx context.Context, o *obs.Observer, n *NFA, input []byte) (*SimResult, error) {
	span := o.For(ctx).Span("nfa", "nfa-simulate", 0).Arg("input_bytes", len(input))
	res, err := simulate(ctx, n, input)
	if err != nil {
		span.Arg("error", err.Error()).End()
		return res, err
	}
	span.Arg("activations", res.Stats.Activations).
		Arg("follow_fetches", res.Stats.FollowFetches).
		Arg("max_frontier", res.Stats.MaxFrontier).
		Arg("matches", res.Stats.Matches).
		End()
	return res, err
}

func simulate(ctx context.Context, n *NFA, input []byte) (*SimResult, error) {
	numStates := n.NumStates()
	words := (numStates + 63) / 64
	res := &SimResult{Outputs: make([]*bitstream.Stream, n.NumRegex)}
	for r := range res.Outputs {
		if n.NullableOf[r] {
			// A nullable regex matches the empty string at every offset,
			// including end-of-input: n+1 end positions for n input bytes.
			res.Outputs[r] = bitstream.NewOnes(len(input) + 1)
		} else {
			res.Outputs[r] = bitstream.New(len(input))
		}
	}
	// Precompute byte-class masks: byteMask[b] has bit s set iff state s
	// consumes byte b.
	byteMask := make([][]uint64, 256)
	for c := 0; c < 256; c++ {
		byteMask[c] = make([]uint64, words)
	}
	for s := 1; s < numStates; s++ {
		cl := n.Class[s]
		for c := 0; c < 256; c++ {
			if cl.Contains(byte(c)) {
				byteMask[c][s/64] |= 1 << (uint(s) % 64)
			}
		}
	}
	// Accept mask (any regex) and per-state accept lists for reporting.
	acceptAny := make([]uint64, words)
	for s := 0; s < numStates; s++ {
		if len(n.Accepts(int32(s))) > 0 {
			acceptAny[s/64] |= 1 << (uint(s) % 64)
		}
	}

	active := make([]uint64, words)
	pending := make([]uint64, words)
	for i, c := range input {
		if ctx != nil && i&(simCheckEvery-1) == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return nil, bgerr.Canceled(err)
			}
		}
		res.Stats.Symbols++
		for w := range pending {
			pending[w] = 0
		}
		// Expand follow sets of active states from the CSR lists, one bit
		// per edge: a dense per-state mask would cost numStates bits per
		// active state. The start state (bit 0) is always active
		// (unanchored matching).
		active[0] |= 1
		for w, a := range active {
			for a != 0 {
				b := bits.TrailingZeros64(a)
				a &= a - 1
				s := w*64 + b
				res.Stats.FollowFetches++
				for _, q := range n.FollowOf(int32(s)) {
					pending[q/64] |= 1 << (uint(q) % 64)
				}
			}
		}
		// Filter by the byte's class membership.
		bm := byteMask[c]
		frontier := 0
		anyAccept := false
		for w := range pending {
			pending[w] &= bm[w]
			frontier += bits.OnesCount64(pending[w])
			if pending[w]&acceptAny[w] != 0 {
				anyAccept = true
			}
		}
		res.Stats.Activations += int64(frontier)
		if frontier > res.Stats.MaxFrontier {
			res.Stats.MaxFrontier = frontier
		}
		if anyAccept {
			for w := range pending {
				hits := pending[w] & acceptAny[w]
				for hits != 0 {
					b := bits.TrailingZeros64(hits)
					hits &= hits - 1
					s := w*64 + b
					for _, r := range n.Accepts(int32(s)) {
						if !res.Outputs[r].Test(i) {
							res.Outputs[r].Set(i)
							res.Stats.Matches++
						}
					}
				}
			}
		}
		active, pending = pending, active
	}
	return res, nil
}
