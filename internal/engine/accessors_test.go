package engine

import (
	"reflect"
	"strings"
	"testing"

	"bitgen/internal/ir"
)

// TestGroupsReturnsClones guards the aliasing fix: Groups() must deep-copy
// every group so callers (diagnostics, snapshot writers) cannot corrupt
// the engine's resident compiled state through the returned slice.
func TestGroupsReturnsClones(t *testing.T) {
	regexes := mustRegexes(t, "cat", "dog(gy)?", "[a-f]+x")
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	e, err := Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.Run([]byte("cat doggy abcfx"))
	if err != nil {
		t.Fatal(err)
	}

	got := e.Groups()
	pristine := e.Groups()
	for i := range got {
		if len(got[i].Names) > 0 {
			got[i].Names[0] = "corrupted"
		}
		for j := range got[i].Packed {
			got[i].Packed[j] ^= 0xff
		}
		if len(got[i].Outputs) > 0 {
			got[i].Outputs[0].Name = "corrupted"
		}
	}
	if !reflect.DeepEqual(e.Groups(), pristine) {
		t.Fatal("mutating Groups() result changed the engine's groups")
	}
	after, err := e.Run([]byte("cat doggy abcfx"))
	if err != nil {
		t.Fatalf("engine corrupted by accessor mutation: %v", err)
	}
	if !reflect.DeepEqual(after.MatchCounts, before.MatchCounts) {
		t.Fatalf("match counts drifted after accessor mutation: before %v after %v",
			before.MatchCounts, after.MatchCounts)
	}

	names := e.MatchNames()
	if len(names) > 0 {
		names[0] = "corrupted"
		if e.MatchNames()[0] == "corrupted" {
			t.Fatal("MatchNames() leaked a live slice")
		}
	}
}

// TestRestoreAcceptsSparseVariableSpace: snapshots written before Rebalance
// renumbered its output carry programs whose NumVars runs far ahead of the
// variables they name, with live ids anywhere below it. Such a program — made
// here by routing every output through a copy with an id past a hole — still
// restores, validates and matches like the dense one.
func TestRestoreAcceptsSparseVariableSpace(t *testing.T) {
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	e, err := Compile(mustRegexes(t, "cat", "dog(gy)?", "b[ir]rd", "[a-f]{2,4}x", "ham.ter"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups := e.Groups()
	for gi := range groups {
		p, err := ir.DecodeProgram(groups[gi].Packed)
		if err != nil {
			t.Fatal(err)
		}
		for oi := range p.Outputs {
			hi := ir.VarID(p.NumVars + 1000*(oi+1))
			p.Stmts = append(p.Stmts, &ir.Assign{Dst: hi, Expr: ir.Copy{Src: p.Outputs[oi].Var}})
			p.Outputs[oi].Var = hi
		}
		p.NumVars += 1000*len(p.Outputs) + 1
		groups[gi].Packed = ir.EncodeProgram(p)
	}
	restored, err := Restore(cfg, groups, e.Shared(), e.PassStats)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("cat doggy bird brrd abcx hamster dog hamxter " + strings.Repeat("fish ", 40))
	want, err := e.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) == 0 || !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Fatalf("sparse restore matched %v, dense engine %v", got.Matches, want.Matches)
	}
}
