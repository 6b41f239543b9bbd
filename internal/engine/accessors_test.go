package engine

import (
	"reflect"
	"testing"
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
