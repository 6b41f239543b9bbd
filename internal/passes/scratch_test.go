package passes

import (
	"testing"

	"bitgen/internal/lower"
	"bitgen/internal/workload"
)

// TestRebalanceRoundAllocatesOnlyWhatItMints: once the first round has sized
// the scratch, a fixpoint round allocates what its rewrites leave in the
// program and nothing else. A rewrite mints two assignments and boxes three
// expressions (the counter shift, the inner AND and the rewritten statement's
// new shift), a fusion of a live statement boxes one and one of lifted orphan
// reads none (fused counts both); the constant covers the body's and the
// tables' amortized growth. Before the scratch a round rebuilt its run list,
// depth table, pre-statement lists and the body (twice) every time.
func TestRebalanceRoundAllocatesOnlyWhatItMints(t *testing.T) {
	app, err := workload.Megaset(12, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lower.Group(app.Regexes, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb := newRebalancer(p, new(scratch))
	var res RebalanceResult
	rb.round(&res)
	if res.Rewrites == 0 {
		t.Fatal("first round rewrote nothing")
	}
	for measured := 2; measured <= 4; measured += 2 {
		var fused, rewrites int
		allocs := testing.AllocsPerRun(1, func() { // a warm-up round, then the measured one
			before := res.Rewrites
			fused, _ = rb.round(&res)
			rewrites = res.Rewrites - before
		})
		if rewrites == 0 {
			t.Fatalf("round %d rewrote nothing: the program is too shallow to measure", measured+1)
		}
		if bound := float64(5*rewrites + fused + 8); allocs > bound {
			t.Errorf("round %d: %v allocations for %d rewrites and %d fusions, want at most %v",
				measured+1, allocs, rewrites, fused, bound)
		}
		t.Logf("round %d: %v allocations, %d rewrites, %d fusions", measured+1, allocs, rewrites, fused)
	}
}
