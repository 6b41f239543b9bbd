package bitgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bitgen/internal/charclass"
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
		{ctas: 8},
		{Device: "L40S"},
		{threads: 64},
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
	// The runtime-only option must NOT refuse.
	if _, err := DecodeEngine(buf.Bytes(), &Options{Observability: &ObservabilityOptions{Metrics: true}}); err != nil {
		t.Fatalf("runtime-only Observability refused: %v", err)
	}

	// A snapshot written before the options-hash domain moved to v4 is
	// otherwise intact (same container, same packed groups): patch in the
	// hash the v2 or v3 formula stored for default options. It must be
	// refused as options-mismatch — a negotiation refusal that leaves the
	// file in place for recompilation — never as corrupt, which would
	// quarantine.
	st, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for domain, fields := range map[string]string{
		"bitgen-snapshot-options-v2": "false||0|0|false|false|0|0|false",
		"bitgen-snapshot-options-v3": "false||0|0|false|false|0|0",
	} {
		h := sha256.New()
		hashField(h, domain)
		hashField(h, fields)
		hashField(h, "0|0|0|0|0")
		st.OptionsHash = hex.EncodeToString(h.Sum(nil))
		_, err = DecodeEngine(snapshot.Encode(st), nil)
		var se *SnapshotError
		if !errors.As(err, &se) || se.Reason != "options-mismatch" {
			t.Fatalf("%s options hash: want options-mismatch, got %v", domain, err)
		}
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
// invariants, is not a program at all, holds a reserved tag or a loop the
// kernel refuses still never becomes an engine, and is refused as corrupt,
// the reason that quarantines the file.
func TestSnapshotInvalidProgramBehindValidChecksums(t *testing.T) {
	good := EncodeEngine(compileFresh(t, nil))
	damages := map[string]func(st *snapshot.EngineState){
		"outputs name never-assigned variables": func(st *snapshot.EngineState) {
			p := ir.MustDecodeProgram(st.Groups[0].Packed)
			p.Stmts = nil
			st.Groups[0].Packed = ir.EncodeProgram(p)
		},
		"not a program": func(st *snapshot.EngineState) { st.Groups[0].Packed = []byte{0xff, 0xfe, 0xfd} },
	}
	for name, damage := range damages {
		st, err := snapshot.Decode(good)
		if err != nil {
			t.Fatal(err)
		}
		damage(st)
		_, err = DecodeEngine(snapshot.Encode(st), nil)
		var se *SnapshotError
		if !errors.As(err, &se) || se.Reason != snapshot.ReasonCorrupt {
			t.Fatalf("%s: want a corrupt refusal, got %v", name, err)
		}
	}
	for want, payload := range hostileGroups() {
		_, err := DecodeEngine(withGroup(t, good, payload), nil)
		var se *SnapshotError
		if !errors.As(err, &se) || se.Reason != snapshot.ReasonCorrupt || !strings.Contains(se.Detail, want) {
			t.Fatalf("%s: want a corrupt refusal naming it, got %v", want, err)
		}
	}
}

// hostileGroups are group programs a v3 loader must refuse behind valid
// checksums, keyed by what the refusal names: two with output o = S0 = ~0 of
// 2 variables, then statement tag 2, an if (S0) with an empty body, or
// expression tag 6, S1 = S0 + S0 — the tags of constructs the IR no longer
// has, in the layouts they had — and a loop that reads one bit further ahead
// each iteration, which the kernel refuses to compile.
func hostileGroups() map[string][]byte {
	head := []byte{4, 0, 1, 1, 'o', 0, 0, 2, 1, 0, 1} // header, output, 2 statements: S0 = ~0
	b := ir.NewBuilder()
	sx, sa := b.MatchClass(charclass.Single('x')), b.MatchClass(charclass.Single('a'))
	m := b.Emit(ir.Expr{Op: ir.OpCopy, X: sx})
	b.While(m, func() {
		b.EmitTo(m, ir.Expr{Op: ir.OpAnd, X: b.Emit(ir.Expr{Op: ir.OpShift, X: m, K: -1}), Y: sa})
	})
	b.Output("run", m)
	return map[string][]byte{
		"statement tag":                      append(slices.Clone(head), 2, 0, 0, 0),       // if (S0), no statements; no barrier schedule
		"expression tag":                     append(slices.Clone(head), 1, 2, 6, 0, 0, 0), // S1 = S0 + S0; no barrier schedule
		"reads further ahead each iteration": ir.EncodeProgram(b.Program()),
	}
}

// withGroup returns snap with its first group's program replaced by payload,
// the checksums recomputed.
func withGroup(t *testing.T, snap, payload []byte) []byte {
	st, err := snapshot.Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	st.Groups[0].Packed = payload
	return snapshot.Encode(st)
}

// withShared returns snap with its last section, the shared classes, holding
// payload instead, every checksum recomputed: damage behind valid framing.
func withShared(snap, payload []byte) []byte {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	off := 16
	for range binary.LittleEndian.Uint32(snap[12:]) - 1 {
		off += 2 + int(binary.LittleEndian.Uint16(snap[off:]))
		off += 8 + int(binary.LittleEndian.Uint64(snap[off:])) + 4
	}
	off += 2 + int(binary.LittleEndian.Uint16(snap[off:]))
	out := binary.LittleEndian.AppendUint64(slices.Clone(snap[:off]), uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// sharedPayload is a shared section declaring len(sets) classes followed by
// their membership bytes.
func sharedPayload(sets []charclass.Class) []byte {
	b := binary.AppendUvarint(nil, uint64(len(sets)))
	for _, cl := range sets {
		set := cl.Bytes()
		b = append(b, set[:]...)
	}
	return b
}

// damagedShared are the shared sections a v3 loader must refuse as corrupt,
// made from an engine's classes (at least one): the last set cut short, a
// byte past the last set, 257 sets, and one set fewer than the groups read.
func damagedShared(sets []charclass.Class) map[string][]byte {
	whole := sharedPayload(sets)
	many := make([]charclass.Class, 257)
	for i := range many {
		many[i] = sets[0]
	}
	return map[string][]byte{
		"a truncated set":                  whole[:len(whole)-1],
		"a trailing byte":                  append(slices.Clone(whole), 0),
		"257 sets":                         sharedPayload(many),
		"a set the groups read is missing": sharedPayload(sets[:len(sets)-1]),
	}
}

// TestSnapshotSharedSectionRefused: a v3 shared section holds the classes'
// byte sets, and the loader trusts two rules about it — at most 256 whole
// sets, and at least as many as every group's program reads. A section that
// breaks either, behind valid checksums, is refused as corrupt. Rewriting the
// section with the engine's own sets reproduces the snapshot byte for byte.
func TestSnapshotSharedSectionRefused(t *testing.T) {
	eng := compileFresh(t, nil)
	sets := eng.inner.SharedClasses()
	if len(sets) == 0 {
		t.Fatal("the snapshot shares no classes")
	}
	good := EncodeEngine(eng)
	if rewritten := withShared(good, sharedPayload(sets)); !bytes.Equal(rewritten, good) {
		t.Fatal("rewriting the shared section with the engine's own sets changed the snapshot")
	}
	for name, payload := range damagedShared(sets) {
		_, err := DecodeEngine(withShared(good, payload), nil)
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
// one byte flipped, with a section length near MaxUint64 (which an additive
// bounds check would wrap), with a damaged shared section or with a hostile
// group program (hostileGroups) is ErrSnapshot, and the intact one, decoded
// under each backend pin, passes the harness's cells.
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
		hostiles := [][]byte{flipped, huge}
		for _, payload := range hostileGroups() {
			hostiles = append(hostiles, withGroup(t, snap, payload))
		}
		if sets := e.inner.SharedClasses(); len(sets) > 0 {
			for _, payload := range damagedShared(sets) {
				hostiles = append(hostiles, withShared(snap, payload))
			}
		}
		for _, hostile := range hostiles {
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

// TestPatternSetKeyPinned pins the bytes of PatternSetKey and of the
// snapshot options hash. Persisted snapshot file names and cluster ring
// placement are derived from them, so moving or renaming an Options field
// must leave every value here unchanged; a deliberate change bumps the
// hash domain tags and rewrites this table.
func TestPatternSetKeyPinned(t *testing.T) {
	patterns := []string{"abc", "a?", "abc", "colou?r"}
	for _, c := range []struct {
		name      string
		opts      *Options
		key, hash string
	}{
		{"nil", nil,
			"192b0c917bc3c2b41cd4dc45756dbbd2a366ef5b1634c50cb16bca803ae6d686",
			"2a407ac450a3a19eec0b2bf1de9be94891b59e60a725f9f02a07b600dbf7b424"},
		{"foldcase", &Options{FoldCase: true},
			"a2d9863b86c183150b614ab107983ac8f65b8f6466c2997b790fa73e8d691b7b",
			"7b0e82a6dbf8cce3b07fe996eba27da24acce24191542db3e8266231812125bb"},
		{"device", &Options{Device: "H100 NVL"},
			"665a56ad42e02618c034e3ffe3a71e6b8bc40f1eab31af3d16b1400ecaf66249",
			"56e7bf721ed6a7f5584521af9c0bcf2fd85010571e1d0ea40d52c1a6eb865547"},
		{"limits", &Options{Limits: Limits{MaxPatterns: -1}},
			"46f6f437a99700c9ea4ad04b334d5e1570a0f4ce3f3794a269eebc99c5795fa2",
			"a1868d628d728d62b05bfbd1224d6300690ce5ac6d14364cdd60251b8e5659d2"},
	} {
		if got := PatternSetKey(patterns, c.opts); got != c.key {
			t.Errorf("%s: PatternSetKey = %s, want %s", c.name, got, c.key)
		}
		opts := c.opts
		if opts == nil {
			opts = &Options{}
		}
		if got := optionsHash(opts); got != c.hash {
			t.Errorf("%s: optionsHash = %s, want %s", c.name, got, c.hash)
		}
	}
}
