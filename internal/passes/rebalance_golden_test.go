package passes

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestRebalanceGolden pins what Shift Rebalancing makes of lowered programs:
// per line, the sha256 of the printed programs after Rebalance (variable
// count included) and the total Rewrites and Iterations. The programs are the
// ten generators at RegexScale 0.05, lowered over consecutive groups of 1, 2,
// 8 and 39 regexes, the 500-signature megaset in groups of two, and the two
// bodies of TestRebalanceLeavesGuardedBodiesWhole. compile.golden covers the
// pass only through whole engines and does not pin Iterations. Rewrite the
// file (-update-golden) only for a deliberate change to the pass's output.
func TestRebalanceGolden(t *testing.T) {
	const golden = "testdata/rebalance.golden"
	var got strings.Builder
	line := func(name string, progs []*ir.Program) {
		h := sha256.New()
		var res RebalanceResult
		for _, p := range progs {
			r := Rebalance(p, RebalanceOptions{})
			res.Rewrites += r.Rewrites
			res.Iterations += r.Iterations
			hashProgram(h, p)
		}
		fmt.Fprintf(&got, "%s programs=%d rewrites=%d iterations=%d sha256=%x\n",
			name, len(progs), res.Rewrites, res.Iterations, h.Sum(nil))
	}
	lowered := func(regexes []lower.Regex, size int) []*ir.Program {
		var progs []*ir.Program
		for i := 0; i < len(regexes); i += size {
			p, err := lower.Group(regexes[i:min(i+size, len(regexes))], lower.Options{})
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, p)
		}
		return progs
	}
	for _, name := range workload.Names() {
		app, err := workload.Load(name, workload.Options{RegexScale: 0.05, InputBytes: 64, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 2, 8, 39} {
			line(fmt.Sprintf("%s/%d", name, size), lowered(app.Regexes, size))
		}
	}
	mega, err := workload.Megaset(500, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	line("megaset500/2", lowered(mega.Regexes, 2))
	line("guarded-body", []*ir.Program{guardedBodyProgram(false), guardedBodyProgram(true)})

	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("Rebalance output drifted from %s:\n--- got\n%s--- want\n%s", golden, got.String(), want)
	}
}

// hashProgram writes p's listing and variable count to h.
func hashProgram(h hash.Hash, p *ir.Program) {
	fmt.Fprintf(h, "%s# vars %d\n", p, p.NumVars)
}
