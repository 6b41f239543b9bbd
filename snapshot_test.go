package bitgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bitgen/internal/ir"
	"bitgen/internal/snapshot"
	"bitgen/internal/workload"
)

// snapPatterns exercises the interesting compile paths: duplicates,
// nullable, star closures, classes, bounded repeats.
var snapPatterns = []string{"abc", "a?", "abc", "a(bc)*d", "[a-f]+x", "colou?r", "ab{2,3}c"}

var snapInput = []byte("zabcz abbcx deefx abbbc colour abcbcd a")

func compileFresh(t *testing.T, opts *Options) *Engine {
	t.Helper()
	eng, err := Compile(snapPatterns, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return eng
}

func roundTrip(t *testing.T, eng *Engine, opts *Options) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveEngine(&buf, eng); err != nil {
		t.Fatalf("SaveEngine: %v", err)
	}
	loaded, err := LoadEngine(&buf, opts)
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	return loaded
}

// TestSnapshotRoundTripDifferential is the differential guarantee: a
// loaded engine produces results struct-identical to the fresh engine —
// matches, Counts, IndexCounts, nullable EOF semantics and modeled stats.
func TestSnapshotRoundTripDifferential(t *testing.T) {
	fresh := compileFresh(t, nil)
	loaded := roundTrip(t, fresh, nil)

	if !reflect.DeepEqual(loaded.Patterns(), fresh.Patterns()) {
		t.Fatalf("patterns drifted: %v != %v", loaded.Patterns(), fresh.Patterns())
	}
	want, err := fresh.Run(snapInput)
	if err != nil {
		t.Fatalf("fresh Run: %v", err)
	}
	got, err := loaded.Run(snapInput)
	if err != nil {
		t.Fatalf("loaded Run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded engine result differs from fresh:\n got %+v\nwant %+v", got, want)
	}
	// The nullable pattern a? must still report the EOF empty match.
	lastEnd := -1
	for _, m := range got.Matches {
		if m.Pattern == "a?" && m.End > lastEnd {
			lastEnd = m.End
		}
	}
	if lastEnd != len(snapInput) {
		t.Fatalf("nullable EOF match lost in snapshot: last a? end %d, want %d", lastEnd, len(snapInput))
	}
}

// TestSnapshotRoundTripBackends: a snapshot loads into the bitstream engine
// only. The loaded engine answers like the fresh one; a load under the NFA
// pin is refused, since a snapshot holds no pattern ASTs to build it from.
func TestSnapshotRoundTripBackends(t *testing.T) {
	fresh := compileFresh(t, nil)
	want, err := fresh.Run(snapInput)
	if err != nil {
		t.Fatalf("fresh Run: %v", err)
	}
	got, err := roundTrip(t, fresh, nil).Run(snapInput)
	if err != nil {
		t.Fatalf("loaded Run: %v", err)
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) || !reflect.DeepEqual(got.IndexCounts, want.IndexCounts) {
		t.Fatalf("loaded engine differs:\n got %+v %v\nwant %+v %v", got.Matches, got.IndexCounts, want.Matches, want.IndexCounts)
	}
	if _, err := DecodeEngine(EncodeEngine(fresh), &Options{Resilience: nfaPin}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("a load under the NFA pin: %v, want ErrUnsupported", err)
	}
}

// TestSnapshotOptionsMismatch proves negotiation: a snapshot compiled
// under different compile-relevant options is refused with the typed
// error, never silently served.
func TestSnapshotOptionsMismatch(t *testing.T) {
	eng := compileFresh(t, nil)
	var buf bytes.Buffer
	if err := SaveEngine(&buf, eng); err != nil {
		t.Fatalf("SaveEngine: %v", err)
	}
	cases := []*Options{
		{FoldCase: true},
		{CTAs: 8},
		{DisableZeroBlockSkipping: true},
		{Limits: Limits{MaxWhileIterations: 7}},
	}
	for _, opts := range cases {
		_, err := DecodeEngine(buf.Bytes(), opts)
		if !errors.Is(err, ErrSnapshot) {
			t.Fatalf("opts %+v: want ErrSnapshot, got %v", opts, err)
		}
		var se *SnapshotError
		if !errors.As(err, &se) || se.Reason != "options-mismatch" {
			t.Fatalf("opts %+v: want options-mismatch, got %v", opts, err)
		}
	}
	// Runtime-only options must NOT refuse.
	for _, opts := range []*Options{{ScanWorkers: 3}, {Observability: &ObservabilityOptions{Metrics: true}}} {
		if _, err := DecodeEngine(buf.Bytes(), opts); err != nil {
			t.Fatalf("runtime-only opts %+v refused: %v", opts, err)
		}
	}

	// A snapshot written before the options-hash domain moved to v3 is
	// otherwise intact (same container, same packed groups): patch in the
	// hash the v2 formula stored for default options. It must be refused
	// as options-mismatch — a negotiation refusal that leaves the file in
	// place for recompilation — never as corrupt, which would quarantine.
	st, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashField(h, "bitgen-snapshot-options-v2")
	hashField(h, "false||0|0|false|false|0|0|false")
	hashField(h, "0|0|0|0|0")
	st.OptionsHash = hex.EncodeToString(h.Sum(nil))
	_, err = DecodeEngine(snapshot.Encode(st), nil)
	var se *SnapshotError
	if !errors.As(err, &se) || se.Reason != "options-mismatch" {
		t.Fatalf("pre-v3 options hash: want options-mismatch, got %v", err)
	}
}

// TestSnapshotCorruptionDetected flips each byte region of a snapshot and
// asserts the loader always refuses — never serves — the damaged file.
func TestSnapshotCorruptionDetected(t *testing.T) {
	eng := compileFresh(t, nil)
	data := EncodeEngine(eng)
	// Flip a byte at several representative offsets: header, early
	// section, middle, near-end, trailing CRC.
	offsets := []int{0, 9, 20, len(data) / 3, len(data) / 2, len(data) - 2}
	for _, off := range offsets {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x01
		if _, err := DecodeEngine(bad, nil); !errors.Is(err, ErrSnapshot) {
			t.Fatalf("flip at %d: want ErrSnapshot, got %v", off, err)
		}
	}
	// Truncations at every framing-sensitive length.
	for _, n := range []int{0, 4, 15, 16, len(data) / 2, len(data) - 1} {
		if _, err := DecodeEngine(data[:n], nil); !errors.Is(err, ErrSnapshot) {
			t.Fatalf("truncate to %d: want ErrSnapshot, got %v", n, err)
		}
	}
}

// TestSnapshotInvalidProgramBehindValidChecksums: the programs are decoded
// and validated once, by engine.Restore, not by snapshot.Decode. A snapshot
// whose framing and CRCs are intact but whose group program violates IR
// invariants — or is not a program at all — still never becomes an engine,
// and is refused as corrupt, the reason that quarantines the file. So is a
// valid shared-class program that is not the straight-line class program
// Compile builds: it would run on the host evaluator, which reads raw basis
// planes only.
func TestSnapshotInvalidProgramBehindValidChecksums(t *testing.T) {
	good := EncodeEngine(compileFresh(t, nil))
	// shared replaces the shared-class program with one of as many outputs,
	// each naming variable 0, so every group still finds its streams.
	shared := func(st *snapshot.EngineState, extBits int, stmts ...ir.Stmt) {
		p := &ir.Program{NumVars: 1, ExtBits: extBits, Stmts: stmts}
		for _, o := range st.Shared.Outputs {
			p.Outputs = append(p.Outputs, ir.Output{Name: o.Name})
		}
		st.Shared = p
	}
	for name, damage := range map[string]func(st *snapshot.EngineState){
		"outputs name never-assigned variables": func(st *snapshot.EngineState) {
			p := ir.MustDecodeProgram(st.Groups[0].Packed)
			p.Stmts = nil
			st.Groups[0].Packed = ir.EncodeProgram(p)
		},
		"not a program": func(st *snapshot.EngineState) { st.Groups[0].Packed = []byte{0xff, 0xfe, 0xfd} },
		"shared program reads an extended basis stream": func(st *snapshot.EngineState) {
			shared(st, 1, &ir.Assign{Dst: 0, Expr: ir.MatchBasis{Bit: 8}})
		},
		"shared program loops": func(st *snapshot.EngineState) {
			shared(st, 0, &ir.Assign{Dst: 0, Expr: ir.MatchBasis{Bit: 1}},
				&ir.While{Cond: 0, Body: []ir.Stmt{&ir.Assign{Dst: 0, Expr: ir.Zero{}}}})
		},
	} {
		st, err := snapshot.Decode(good)
		if err != nil {
			t.Fatal(err)
		}
		if st.Shared == nil {
			t.Fatal("the snapshot shares no classes")
		}
		damage(st)
		_, err = DecodeEngine(snapshot.Encode(st), nil)
		var se *SnapshotError
		if !errors.As(err, &se) || se.Reason != snapshot.ReasonCorrupt {
			t.Fatalf("%s: want a corrupt refusal, got %v", name, err)
		}
	}
}

// TestSnapshotNamesLowestBadGroup: the loader decodes and validates the group
// programs concurrently; a checksummed snapshot with several bad groups is
// refused as corrupt naming the lowest of them — the one a serial loader
// stops at — every time.
func TestSnapshotNamesLowestBadGroup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	app, err := workload.Megaset(64, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Compile(app.Patterns, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(EncodeEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	p := ir.MustDecodeProgram(st.Groups[21].Packed)
	p.Stmts, p.Barriers = nil, nil // outputs name never-assigned variables: decodes, fails ir.Validate
	st.Groups[21].Packed = ir.EncodeProgram(p)
	for _, gi := range []int{22, 40, 63} {
		st.Groups[gi].Packed = []byte{0xff, 0xfe, 0xfd}
	}
	hostile := snapshot.Encode(st)
	for i := 0; i < 50; i++ {
		_, err := DecodeEngine(hostile, nil)
		var se *SnapshotError
		if !errors.As(err, &se) || se.Reason != snapshot.ReasonCorrupt || !strings.Contains(se.Detail, "group 21 invalid") {
			t.Fatalf("load %d: want a corrupt refusal naming group 21, got %v", i, err)
		}
	}
}

// FuzzSnapshotRoundTrip saves generated pattern sets' engines: a snapshot with
// one byte flipped, or with a section length near MaxUint64 (which an additive
// bounds check would wrap), is ErrSnapshot, and the intact one, decoded under
// each backend pin, passes the harness's cells.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.seed, []byte(s.data))
	}
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		patterns, e := fuzzSet(t, seed)
		snap := EncodeEngine(e)
		flipped, huge := slices.Clone(snap), slices.Clone(snap)
		flipped[seed%uint64(len(snap))] ^= 0x10
		binary.LittleEndian.PutUint64(huge[18+int(binary.LittleEndian.Uint16(huge[16:18])):], math.MaxUint64-seed%5)
		for _, hostile := range [][]byte{flipped, huge} {
			if _, err := DecodeEngine(hostile, nil); !errors.Is(err, ErrSnapshot) {
				t.Fatalf("a damaged snapshot: want ErrSnapshot, got %v", err)
			}
		}
		(&conformance{t: t}).set("as given", corpus{patterns: patterns, input: fuzzInput(data), wide: true})
	})
}

// TestSnapshotResilienceSaved saves an engine that was compiled WITH the
// NFA pin and loads it plain: only compiled state persists.
func TestSnapshotResilienceSaved(t *testing.T) {
	fresh := compileFresh(t, &Options{Resilience: nfaPin})
	loaded := roundTrip(t, fresh, nil)
	want, err := fresh.Run(snapInput)
	if err != nil {
		t.Fatalf("fresh Run: %v", err)
	}
	got, err := loaded.Run(snapInput)
	if err != nil {
		t.Fatalf("loaded Run: %v", err)
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Fatalf("matches differ after resilience round-trip")
	}
	if got.Backend != "" {
		t.Fatalf("plain loaded engine reports backend %q", got.Backend)
	}
}
