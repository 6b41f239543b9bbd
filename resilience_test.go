package bitgen

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"bitgen/internal/faultinject"
)

var pinPatterns = []string{"cat", "d.g", "\\d{2}"}

const pinInput = "cat 42 dog dig 7 catalog dug 19 cat"

// nfaPin is the one backend pin an engine can carry.
var nfaPin = &ResilienceOptions{ForceBackend: BackendNFA}

// checkNFAPin checks the contract of an engine pinned to the NFA reference on
// one input: Run lists the reference's matches, names the NFA in
// Result.Backend and models nothing, and CountOnly agrees with that Run.
func checkNFAPin(t testing.TB, label string, e *Engine, input []byte) {
	t.Helper()
	res, err := e.Run(input)
	if err != nil {
		t.Fatalf("%s: pinned Run: %v", label, err)
	}
	want := reference(t, e.patterns, input)
	same(t, label+": pinned Run", res.Matches, want)
	if _, wantIndex := countsOf(want, len(e.patterns)); !slices.Equal(res.IndexCounts, wantIndex) {
		t.Fatalf("%s: pinned IndexCounts %v, the reference's %v", label, res.IndexCounts, wantIndex)
	}
	if res.Backend != BackendNFA || res.Stats != (Stats{}) {
		t.Fatalf("%s: served by %q with stats %+v, want %q with none", label, res.Backend, res.Stats, BackendNFA)
	}
	counts, err := e.CountOnly(input)
	if err != nil {
		t.Fatalf("%s: pinned CountOnly: %v", label, err)
	}
	sameCounts(t, label+": pinned CountOnly", counts, res.Counts)
}

// TestResilientRunHappyPathServesBitstream: an unpinned engine is the
// bitstream engine — it lists the NFA pin's matches with modeled stats.
func TestResilientRunHappyPathServesBitstream(t *testing.T) {
	pinned := MustCompile(pinPatterns, &Options{Resilience: nfaPin})
	want, err := pinned.Run([]byte(pinInput))
	if err != nil {
		t.Fatal(err)
	}
	res, err := MustCompile(pinPatterns, nil).Run([]byte(pinInput))
	if err != nil {
		t.Fatal(err)
	}
	same(t, "unpinned Run", res.Matches, want.Matches)
	if res.Stats.ModeledTime <= 0 {
		t.Fatal("the bitstream engine's result lost its modeled stats")
	}
}

// TestHealthZeroWhenResilienceDisabled: an engine compiled without
// Options.Resilience names no backend in Result.Backend and carries no NFA.
func TestHealthZeroWhenResilienceDisabled(t *testing.T) {
	plain, err := Compile(pinPatterns, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ref != nil || plain.ResidentBytes() != plain.inner.ResidentBytes() {
		t.Fatal("an unpinned engine built an NFA")
	}
	res, err := plain.Run([]byte(pinInput))
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "" {
		t.Fatalf("Result.Backend = %q without Options.Resilience, want empty", res.Backend)
	}
}

// TestForceBackendPinsTheLadder pins the contract of the one pin left: a
// BackendNFA engine's Run equals the reference, its CountOnly agrees, and
// it counts its NFA resident; ScanReader on it, DecodeEngine under it and
// every other ForceBackend value are refused as unsupported.
func TestForceBackendPinsTheLadder(t *testing.T) {
	plain := MustCompile(pinPatterns, nil)
	e, err := Compile(pinPatterns, &Options{Resilience: nfaPin})
	if err != nil {
		t.Fatal(err)
	}
	checkNFAPin(t, "pinPatterns", e, []byte(pinInput))
	if e.ResidentBytes() <= plain.ResidentBytes() {
		t.Fatalf("pinned engine resident %d bytes, unpinned %d", e.ResidentBytes(), plain.ResidentBytes())
	}
	refusals := map[string]error{
		"ScanReader": e.ScanReader(bytes.NewReader([]byte(pinInput)), 16, func(Match) {}),
	}
	_, refusals["DecodeEngine"] = DecodeEngine(EncodeEngine(plain), &Options{Resilience: nfaPin})
	for _, name := range []string{"", "bitstream", "hybrid", "abacus"} {
		_, refusals["ForceBackend "+name] = Compile(pinPatterns, &Options{Resilience: &ResilienceOptions{ForceBackend: name}})
	}
	for call, err := range refusals {
		if !errors.As(err, new(*UnsupportedError)) {
			t.Errorf("%s: %v, want an *UnsupportedError", call, err)
		}
	}
}

// TestPinnedBitstreamFaultsSurfaceTyped: nothing retries or falls over on
// the caller's behalf. A failed launch reaches the caller as ErrTransient,
// a kernel panic as *InternalError — through Run, CountOnly and a
// ScanReader chunk alike — and the engine serves the next call.
func TestPinnedBitstreamFaultsSurfaceTyped(t *testing.T) {
	e := MustCompile(pinPatterns, nil)
	want := reference(t, pinPatterns, []byte(pinInput))
	clean := e.inner
	calls := map[string]func() error{
		"Run": func() error { _, err := e.Run([]byte(pinInput)); return err },
		"CountOnly": func() error {
			_, err := e.CountOnly([]byte(pinInput))
			return err
		},
		"ScanReader": func() error {
			return e.ScanReader(bytes.NewReader([]byte(pinInput)), 16, func(Match) {})
		},
	}
	for name, call := range calls {
		e.inner = clean.WithInjector(faultinject.New(1).ArmNth(faultinject.LaunchFail, 1))
		if err := call(); !errors.Is(err, ErrTransient) {
			t.Fatalf("%s under a failed launch: %v, want ErrTransient", name, err)
		}
		e.inner = clean.WithInjector(faultinject.New(1).ArmNth(faultinject.KernelPanic, 1))
		var ie *InternalError
		if err := call(); !errors.As(err, &ie) {
			t.Fatalf("%s under a kernel panic: %v, want *InternalError", name, err)
		}
		res, err := e.Run([]byte(pinInput))
		if err != nil {
			t.Fatalf("%s: engine unusable after the faults: %v", name, err)
		}
		same(t, name+": the next Run", res.Matches, want)
	}
}

func TestTerminalErrorsDoNotFailOver(t *testing.T) {
	for _, ropts := range []*ResilienceOptions{nil, nfaPin} {
		e, err := Compile(pinPatterns, &Options{Resilience: ropts, Limits: Limits{MaxInputBytes: 8}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(bytes.Repeat([]byte("x"), 9)); !errors.Is(err, ErrLimit) {
			t.Fatalf("pinned %v: oversized input returned %v, want ErrLimit", ropts != nil, err)
		}
	}
}
