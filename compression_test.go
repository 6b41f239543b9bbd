package bitgen

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

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

// TestStateCompressionDifferential checks the packed, shared-basis
// compiled state against the NFA reference: on class-sharing and
// duplicate-heavy sets, every pinned backend (and the plain engine with no
// pin) must report the reference's matches, counts and
// per-index counts. The nfa leg recompiles the reference itself, pinning
// that it is deterministic.
func TestStateCompressionDifferential(t *testing.T) {
	sets := map[string][]string{
		"shared-class":    sharedClassPatterns,
		"duplicate-heavy": duplicateHeavyPatterns,
	}
	backends := []string{"", BackendBitstream, BackendHybrid, BackendNFA}
	for name, patterns := range sets {
		reference, err := Compile(patterns, &Options{Resilience: &ResilienceOptions{ForceBackend: BackendNFA}})
		if err != nil {
			t.Fatalf("%s: reference compile: %v", name, err)
		}
		for _, backend := range backends {
			label := name + "/default"
			if backend != "" {
				label = name + "/" + backend
			}
			t.Run(label, func(t *testing.T) {
				var opts Options
				if backend != "" {
					opts.Resilience = &ResilienceOptions{ForceBackend: backend}
				}
				packed, err := Compile(patterns, &opts)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				for _, input := range compressionInputs {
					got, err := packed.Run(input)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					want, err := reference.Run(input)
					if err != nil {
						t.Fatalf("reference run: %v", err)
					}
					if !reflect.DeepEqual(got.Matches, want.Matches) {
						t.Fatalf("input %q: matches %v, nfa reference %v",
							input, got.Matches, want.Matches)
					}
					for _, p := range patterns {
						if got.Counts[p] != want.Counts[p] {
							t.Fatalf("input %q: counts %v, nfa reference %v",
								input, got.Counts, want.Counts)
						}
					}
					if !reflect.DeepEqual(got.IndexCounts, want.IndexCounts) {
						t.Fatalf("input %q: index counts %v, nfa reference %v",
							input, got.IndexCounts, want.IndexCounts)
					}
				}
			})
		}
	}
}

// TestStateCompressionResidency checks the packed layout's size claim on a
// mid-size megaset slice: the engine's measured resident bytes must
// undercut what the same groups would occupy as boxed pointer IR by at
// least 2x. The boxed size is computed here from the decoded programs —
// no production path stores that form.
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
	// Swap each group's packed bytes for its boxed size; names, output
	// tables and rank tables are the same in both layouts.
	boxed := packed
	for _, g := range e.inner.Groups() {
		boxed += ir.ProgramSizeBytes(g.Prog()) - (int64(len(g.Packed)) + 24)
	}
	if packed <= 0 {
		t.Fatalf("resident bytes must be measured, got %d", packed)
	}
	if boxed < 2*packed {
		t.Fatalf("compression ratio %.2fx below the 2x floor (packed=%d boxed=%d)",
			float64(boxed)/float64(packed), packed, boxed)
	}
}

// TestSnapshotByteIdentity: snapshots are stable under a load/save cycle —
// EncodeEngine(DecodeEngine(data)) reproduces data byte for byte, because
// the packed group blocks are stored verbatim and re-emitted verbatim.
// This is what lets a warm-started server content-address snapshot blocks
// against live engines.
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
