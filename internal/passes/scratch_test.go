package passes

import (
	"testing"

	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/workload"
)

// TestRebalanceRoundAllocatesOnlyWhatItMints: the rounds run on the work form
// alone — a rewrite appends two records, a fusion edits one — so once a
// scratch has served the program, no round allocates at all. The whole pass
// then allocates a constant — the minted assignments' slab and the bodies
// that grew, 3 objects on this program — however many assignments it leaves:
// it writes an assignment back as a value.
func TestRebalanceRoundAllocatesOnlyWhatItMints(t *testing.T) {
	app, err := workload.Megaset(12, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lowered, err := lower.Group(app.Regexes, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := new(scratch)
	s.rebalance(lowered.Clone()) // grows the scratch to the program
	rb := newRebalancer(lowered.Clone(), s)
	var res RebalanceResult
	for round, changed := 1, true; changed; round += 2 { // a round, then the measured one
		before := res.Rewrites
		allocs := testing.AllocsPerRun(1, func() { _, changed = rb.round(&res) })
		if round == 1 && res.Rewrites == before {
			t.Fatal("the first rounds rewrote nothing: the program is too shallow to measure")
		}
		if allocs != 0 {
			t.Errorf("round %d: %v allocations for %d rewrites", round+1, allocs, res.Rewrites-before)
		}
	}

	var progs [2]*ir.Program
	for i := range progs {
		progs[i] = lowered.Clone()
	}
	run := 0
	allocs := testing.AllocsPerRun(1, func() { s.rebalance(progs[run]); run++ })
	assigns := 0
	ir.WalkStmts(progs[1].Stmts, func(st ir.Stmt) {
		if _, ok := st.(*ir.Assign); ok {
			assigns++
		}
	})
	if bound := 8.0; allocs > bound {
		t.Errorf("Rebalance: %v allocations for %d assignments left, want at most %v", allocs, assigns, bound)
	}
	t.Logf("Rebalance: %v allocations, %d assignments left, %d rewrites", allocs, assigns, res.Rewrites)
}
