package bitgen

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"bitgen/internal/ir"
	"bitgen/internal/workload"
)

// sharedClassPatterns lean heavily on a handful of character classes so
// the compressed compile promotes them to the shared extended basis:
// every group references [a-f] and/or [0-9] and the interned streams must
// bind back into each group's transpose view without changing semantics.
var sharedClassPatterns = []string{
	"[a-f]+x",
	"[a-f]*y",
	"ab[a-f]c",
	"[0-9][0-9][a-f]",
	"x[a-f]?z",
	"[a-f][0-9]",
	"q[0-9]+",
}

// duplicateHeavyPatterns repeat entries so charclass interning, packed
// program dedup and the per-index match fan-out all face the worst case.
var duplicateHeavyPatterns = []string{
	"abc", "abc", "abc",
	"a(bc)*d", "a(bc)*d",
	"[a-f]+", "abc", "[a-f]+",
	"colou?r",
}

var compressionInputs = [][]byte{
	[]byte("abcdefx 42a qa9z abc colour xffy"),
	[]byte(strings.Repeat("abcabcd 99f xaz color colour ", 40)),
	{},
	[]byte("fffffx000aq123"),
}

// TestStateCompressionDifferential checks the packed, shared-basis compiled
// state on the class-sharing and duplicate-heavy sets: each input passes the
// harness's wide cells, and an engine pinned to the NFA reference keeps its
// contract on the same sets.
func TestStateCompressionDifferential(t *testing.T) {
	for _, set := range []struct {
		name     string
		patterns []string
	}{{"shared-class", sharedClassPatterns}, {"duplicate-heavy", duplicateHeavyPatterns}} {
		t.Run(set.name+"/default", func(t *testing.T) {
			c := &conformance{t: t}
			for _, input := range compressionInputs {
				c.row(corpus{patterns: set.patterns, input: input, wide: true})
			}
			if set.name == "shared-class" && c.shared == 0 {
				t.Fatal("no engine of the set shares a class between groups")
			}
		})
		t.Run(set.name+"/nfa", func(t *testing.T) {
			e := MustCompile(set.patterns, &Options{Resilience: nfaPin})
			for _, input := range compressionInputs {
				checkNFAPin(t, set.name, e, input)
			}
		})
	}
}

// TestStateCompressionResidency checks the packed layout's size claim on a
// mid-size megaset slice: the engine's measured resident bytes must
// undercut what the same groups would occupy as decoded programs by at
// least 2x. The decoded size is computed here from the decoded programs —
// no production path keeps that form resident.
func TestStateCompressionResidency(t *testing.T) {
	app, err := workload.Megaset(600, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(app.Patterns, &Options{Limits: Limits{MaxPatterns: -1}})
	if err != nil {
		t.Fatal(err)
	}
	packed := e.ResidentBytes()
	// Swap each group's packed bytes for its decoded size; names, output
	// tables and rank tables are the same in both layouts.
	decoded := packed
	for _, g := range e.inner.Groups() {
		decoded += programSizeBytes(g.Prog()) - (int64(len(g.Packed)) + int64(unsafe.Sizeof(g.Packed)))
	}
	if packed <= 0 {
		t.Fatalf("resident bytes must be measured, got %d", packed)
	}
	ratio := float64(decoded) / float64(packed)
	if decoded < 2*packed {
		t.Fatalf("compression ratio %.2fx below the 2x floor (packed=%d decoded=%d)", ratio, packed, decoded)
	}
	t.Logf("compression ratio %.2fx (packed=%d decoded=%d)", ratio, packed, decoded)
}

// TestSnapshotByteIdentity: snapshots are stable under a load/save cycle —
// EncodeEngine(DecodeEngine(data)) reproduces data byte for byte, because
// the packed group blocks are stored verbatim and re-emitted verbatim.
// This is what lets /v1/snapshot re-encode a cached engine and hand a peer
// the same bytes as the file on disk.
func TestSnapshotByteIdentity(t *testing.T) {
	t.Run("compressed", func(t *testing.T) {
		e, err := Compile(sharedClassPatterns, nil)
		if err != nil {
			t.Fatal(err)
		}
		data := EncodeEngine(e)
		loaded, err := DecodeEngine(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		again := EncodeEngine(loaded)
		if !bytes.Equal(data, again) {
			t.Fatalf("snapshot not byte-stable: first %d bytes, reencoded %d bytes", len(data), len(again))
		}
	})
}

// TestPatternsAccessorCloned guards against the Groups()-style live-slice
// leak at the public API layer: mutating the slice returned by Patterns()
// must not corrupt the engine's own pattern table.
func TestPatternsAccessorCloned(t *testing.T) {
	e, err := Compile([]string{"abc", "def"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Patterns()
	got[0] = "corrupted"
	if again := e.Patterns(); again[0] != "abc" {
		t.Fatalf("Patterns() leaked a live slice: engine now reports %v", again)
	}
	res, err := e.Run([]byte("abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["abc"] != 1 || res.Counts["def"] != 1 {
		t.Fatalf("engine corrupted after accessor mutation: %v", res.Counts)
	}
}

// TestNullableRefusalDeduped: ScanReader's typed refusal of
// empty-matchable patterns lists each offending pattern once, however
// many duplicate entries the set carries (the per-index fan-out keeps
// duplicates distinguishable elsewhere; the error message should not).
func TestNullableRefusalDeduped(t *testing.T) {
	e, err := Compile([]string{"a?", "abc", "a?", "b?c?", "a?"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = e.ScanReader(strings.NewReader("aaa"), 0, func(Match) {})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("want ErrUnsupported, got %v", err)
	}
	var ue *UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnsupportedError, got %T", err)
	}
	want := []string{"a?", "b?c?"}
	if !reflect.DeepEqual(ue.Patterns, want) {
		t.Fatalf("refusal pattern list = %v, want deduplicated %v", ue.Patterns, want)
	}
}

// programSizeBytes estimates the heap footprint of p as DecodeProgram lays
// it out, priced by the sizes of the real node types: statements and their
// lists, outputs, and the barrier schedule.
func programSizeBytes(p *ir.Program) int64 {
	sz := int64(unsafe.Sizeof(*p)) + stmtsSizeBytes(p.Stmts)
	for _, o := range p.Outputs {
		sz += int64(unsafe.Sizeof(o)) + int64(len(o.Name))
	}
	if b := p.Barriers; b != nil {
		sz += int64(unsafe.Sizeof(*b))
		for _, g := range b.Groups {
			sz += int64(unsafe.Sizeof(g)) + int64(unsafe.Sizeof(g[0]))*int64(len(g))
		}
	}
	return sz
}

func stmtsSizeBytes(list []ir.Stmt) int64 {
	var s ir.Stmt
	sz := int64(unsafe.Sizeof(list)) + int64(unsafe.Sizeof(s))*int64(len(list))
	for _, s := range list {
		switch x := s.(type) {
		case *ir.Assign:
			sz += int64(unsafe.Sizeof(*x))
		case *ir.While:
			sz += int64(unsafe.Sizeof(*x)) + stmtsSizeBytes(x.Body)
		case *ir.Guard:
			sz += int64(unsafe.Sizeof(*x))
		}
	}
	return sz
}
