package bitgen

import (
	"bytes"
	"errors"
	"testing"

	"bitgen/internal/faultinject"
)

var pinPatterns = []string{"cat", "d.g", "\\d{2}"}

const pinInput = "cat 42 dog dig 7 catalog dug 19 cat"

// compilePinned compiles with the given pin and returns the engine plus the
// expected match set: an unpinned engine's.
func compilePinned(t *testing.T, ropts *ResilienceOptions) (*Engine, []Match) {
	t.Helper()
	baseline, err := Compile(pinPatterns, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.Run([]byte(pinInput))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) == 0 {
		t.Fatal("baseline found no matches; test input is broken")
	}
	e, err := Compile(pinPatterns, &Options{Resilience: ropts})
	if err != nil {
		t.Fatal(err)
	}
	return e, want.Matches
}

func sameMatches(t *testing.T, got []Match, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestResilientRunHappyPathServesBitstream: an empty pin is the bitstream
// engine — with its modeled stats, named in Result.Backend.
func TestResilientRunHappyPathServesBitstream(t *testing.T) {
	e, want := compilePinned(t, &ResilienceOptions{})
	res, err := e.Run([]byte(pinInput))
	if err != nil {
		t.Fatal(err)
	}
	sameMatches(t, res.Matches, want)
	if res.Backend != BackendBitstream {
		t.Fatalf("served by %q, want %q", res.Backend, BackendBitstream)
	}
	if res.Stats.ModeledTime <= 0 {
		t.Fatal("bitstream-served result lost its modeled stats")
	}
	if e.fallback != nil {
		t.Fatal("a bitstream pin compiled a fallback automaton")
	}
}

// TestHealthZeroWhenResilienceDisabled: an engine compiled without
// Options.Resilience names no backend in Result.Backend and carries no
// fallback automaton.
func TestHealthZeroWhenResilienceDisabled(t *testing.T) {
	plain, err := Compile(pinPatterns, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.fallback != nil {
		t.Fatal("an unpinned engine compiled a fallback automaton")
	}
	res, err := plain.Run([]byte(pinInput))
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "" {
		t.Fatalf("Result.Backend = %q without Options.Resilience, want empty", res.Backend)
	}
}

// TestForceBackendPinsTheLadder: every pin serves Run and CountOnly with the
// unpinned engine's answer and names itself; a hybrid or NFA pin compiles
// that one automaton and counts it resident; an unknown name is refused.
func TestForceBackendPinsTheLadder(t *testing.T) {
	plain := MustCompile(pinPatterns, nil)
	for _, name := range []string{BackendBitstream, BackendHybrid, BackendNFA} {
		e, want := compilePinned(t, &ResilienceOptions{ForceBackend: name})
		res, err := e.Run([]byte(pinInput))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameMatches(t, res.Matches, want)
		if res.Backend != name {
			t.Fatalf("forced %q but served by %q", name, res.Backend)
		}
		counts, err := e.CountOnly([]byte(pinInput))
		if err != nil {
			t.Fatalf("%s: CountOnly: %v", name, err)
		}
		for _, p := range pinPatterns {
			if counts[p] != res.Counts[p] {
				t.Fatalf("%s: CountOnly[%s] = %d, Run counts %d", name, p, counts[p], res.Counts[p])
			}
		}
		if fallback := e.fallback != nil; fallback != (name != BackendBitstream) {
			t.Fatalf("%s: fallback automaton compiled = %v", name, fallback)
		}
		if grew := e.ResidentBytes() > plain.ResidentBytes(); grew != (name != BackendBitstream) {
			t.Fatalf("%s: resident %d bytes, unpinned %d", name, e.ResidentBytes(), plain.ResidentBytes())
		}
	}
	if _, err := Compile(pinPatterns, &Options{
		Resilience: &ResilienceOptions{ForceBackend: "abacus"},
	}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("unknown forced backend returned %v, want ErrUnsupported", err)
	}
}

// TestPinnedBitstreamFaultsSurfaceTyped: nothing retries or falls over on
// the caller's behalf. A failed launch reaches the caller as ErrTransient,
// a kernel panic as *InternalError — through Run, CountOnly and a
// ScanReader chunk alike — and the engine serves the next call.
func TestPinnedBitstreamFaultsSurfaceTyped(t *testing.T) {
	e, want := compilePinned(t, &ResilienceOptions{ForceBackend: BackendBitstream})
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
		sameMatches(t, res.Matches, want)
	}
}

func TestTerminalErrorsDoNotFailOver(t *testing.T) {
	for _, name := range []string{BackendBitstream, BackendHybrid, BackendNFA} {
		e, err := Compile(pinPatterns, &Options{
			Resilience: &ResilienceOptions{ForceBackend: name},
			Limits:     Limits{MaxInputBytes: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(bytes.Repeat([]byte("x"), 9)); !errors.Is(err, ErrLimit) {
			t.Fatalf("%s: oversized input returned %v, want ErrLimit", name, err)
		}
	}
}
