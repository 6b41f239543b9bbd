package engine

import (
	"reflect"
	"strings"
	"testing"

	"bitgen/internal/ir"
	"bitgen/internal/transpose"
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
			p.Stmts = append(p.Stmts, &ir.Assign{Dst: hi, Expr: ir.Expr{Op: ir.OpCopy, X: p.Outputs[oi].Var}})
			p.Outputs[oi].Var = hi
		}
		p.NumVars += 1000*len(p.Outputs) + 1
		groups[gi].Packed = ir.EncodeProgram(p)
	}
	restored, err := Restore(cfg, groups, e.SharedClasses(), e.PassStats)
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

// TestSharedIsBuiltFromTheSets: Shared() is the frozen benchmark's view of
// the shared classes, built from the stored sets — one output per class,
// named by its key, in slot order, computing the class over the raw basis —
// and SharedClasses() is a copy of those sets.
func TestSharedIsBuiltFromTheSets(t *testing.T) {
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	e, err := Compile(mustRegexes(t, "[a-f]x[0-9]", "[a-f]y[0-9]", "z[0-9][a-f]"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sets := e.SharedClasses()
	if len(sets) == 0 {
		t.Fatal("the engine shares no classes")
	}
	p := e.Shared()
	if p.ExtBits != 0 || len(p.Outputs) != len(sets) {
		t.Fatalf("Shared(): %d outputs, ExtBits %d, for %d classes", len(p.Outputs), p.ExtBits, len(sets))
	}
	input := make([]byte, 256)
	for c := range input {
		input[c] = byte(c)
	}
	res, err := ir.Interpret(p, transpose.Transpose(input), ir.InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range p.Outputs {
		if o.Name != sets[i].Key() {
			t.Fatalf("output %d is %q, class %v", i, o.Name, sets[i])
		}
		for c := range input {
			if res.Outputs[o.Name].Test(c) != sets[i].Contains(byte(c)) {
				t.Fatalf("output %d at byte %#x: %v, class %v", i, c, res.Outputs[o.Name].Test(c), sets[i])
			}
		}
	}
	sets[0] = sets[0].Negate()
	if e.SharedClasses()[0] == sets[0] {
		t.Fatal("SharedClasses() leaked the engine's sets")
	}
}
