package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bitgen/internal/bgerr"
	"bitgen/internal/faultinject"
	"bitgen/internal/gpusim"
	"bitgen/internal/kernel"
)

func hardenedInput() []byte {
	return []byte("cat doggy bird fishsh hamster the catalog dog bird fish cat")
}

// TestInjectedKernelPanicBecomesInternalError is the acceptance test for
// panic containment: a forced panic inside one CTA group's kernel run
// surfaces as a *bgerr.InternalError carrying the group index and its
// patterns, the process survives, and a subsequent Run on the same Engine
// succeeds.
func TestInjectedKernelPanicBecomesInternalError(t *testing.T) {
	regexes := mustRegexes(t, "cat", "dog(gy)?", "b[ir]rd", "fi(sh)+")
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	cfg.KeepOutputs = true
	cfg.Inject = faultinject.New(1).ArmNth(faultinject.KernelPanic, 1)
	e, err := Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	input := hardenedInput()
	_, err = e.Run(input)
	if err == nil {
		t.Fatal("run with injected kernel panic returned no error")
	}
	var ie *bgerr.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v is not a *bgerr.InternalError", err)
	}
	if ie.Op != "run" || ie.Group < 0 || ie.Group >= len(e.Groups()) {
		t.Fatalf("internal error has op %q group %d", ie.Op, ie.Group)
	}
	if len(ie.Patterns) == 0 {
		t.Fatal("internal error carries no pattern names")
	}
	if len(ie.Stack) == 0 {
		t.Fatal("internal error carries no stack")
	}

	// The injector fired once; the same Engine must now run cleanly.
	res, err := e.Run(input)
	if err != nil {
		t.Fatalf("subsequent run on the same engine failed: %v", err)
	}
	want, err := func() (*Result, error) {
		clean := BitGenDefault()
		clean.Grid = smallGrid
		clean.KeepOutputs = true
		ce, err := Compile(mustRegexes(t, "cat", "dog(gy)?", "b[ir]rd", "fi(sh)+"), clean)
		if err != nil {
			return nil, err
		}
		return ce.Run(input)
	}()
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range want.MatchCounts {
		if res.MatchCounts[name] != n {
			t.Fatalf("post-panic run: %s count %d, want %d", name, res.MatchCounts[name], n)
		}
	}
}

func TestInjectedLaunchFailureIsTypedAndSurvivable(t *testing.T) {
	regexes := mustRegexes(t, "cat", "dog")
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	cfg.Inject = faultinject.New(2).ArmNth(faultinject.LaunchFail, 1)
	e, err := Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(hardenedInput())
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("launch failure returned %v, want ErrInjected in chain", err)
	}
	if _, err := e.Run(hardenedInput()); err != nil {
		t.Fatalf("engine unusable after launch failure: %v", err)
	}
}

func TestRunContextCanceledReturnsErrCanceled(t *testing.T) {
	regexes := mustRegexes(t, "cat", "dog")
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	e, err := Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.RunContext(ctx, hardenedInput())
	if !errors.Is(err, bgerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	// The engine is unaffected.
	if _, err := e.Run(hardenedInput()); err != nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
}

func TestCompileContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileContext(ctx, mustRegexes(t, "cat"), BitGenDefault())
	if !errors.Is(err, bgerr.ErrCanceled) {
		t.Fatalf("canceled compile returned %v", err)
	}
}

func TestMaxProgramInstructionsRefusal(t *testing.T) {
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	cfg.MaxProgramInstructions = 1
	_, err := Compile(mustRegexes(t, "h[aeiou]mster.*fish"), cfg)
	if !errors.Is(err, bgerr.ErrLimit) {
		t.Fatalf("oversized program returned %v, want ErrLimit", err)
	}
	var le *bgerr.LimitError
	if !errors.As(err, &le) || le.Limit != "program-instructions" {
		t.Fatalf("error %v is not a program-instructions LimitError", err)
	}
}

func TestMemoryBudgetRefusal(t *testing.T) {
	// Sequential mode materializes every intermediate, so even a small
	// pattern set exceeds a one-byte budget.
	cfg := Config{Mode: kernel.ModeSequential, Grid: smallGrid, MemoryBudgetBytes: 1}
	e, err := Compile(mustRegexes(t, "cat", "dog(gy)?"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(hardenedInput())
	if !errors.Is(err, bgerr.ErrLimit) {
		t.Fatalf("over-budget run returned %v, want ErrLimit", err)
	}
	var le *bgerr.LimitError
	if !errors.As(err, &le) || le.Limit != "device-memory-bytes" {
		t.Fatalf("error %v is not a device-memory-bytes LimitError", err)
	}
}

func TestMaxWhileIterationsDefaultIsWired(t *testing.T) {
	got := Config{}.withDefaults()
	if got.MaxWhileIterations != DefaultMaxWhileIterations {
		t.Fatalf("default MaxWhileIterations = %d, want %d", got.MaxWhileIterations, DefaultMaxWhileIterations)
	}
	adaptive := Config{MaxWhileIterations: -1}.withDefaults()
	if adaptive.MaxWhileIterations != 0 {
		t.Fatalf("-1 should select the kernel's adaptive bound (0), got %d", adaptive.MaxWhileIterations)
	}
	explicit := Config{MaxWhileIterations: 37}.withDefaults()
	if explicit.MaxWhileIterations != 37 {
		t.Fatalf("explicit cap rewritten to %d", explicit.MaxWhileIterations)
	}
}

// TestPooledSessionNotReusedAfterFallbackOrError pins the run pool's policy:
// only a session indistinguishable from a fresh one goes back. One whose
// kernels took an overlap fallback would carry it (and its modeled-time
// delta) into the next Run; one that failed mid-launch may hold
// inconsistent retained state.
func TestPooledSessionNotReusedAfterFallbackOrError(t *testing.T) {
	cfg := BitGenDefault()
	// A 128-bit block: the b* carry chain below outgrows the overlap cap.
	cfg.Grid = gpusim.Grid{CTAs: 1, Threads: 4, UnitBits: 32, UnitsPerThread: 1}
	e, err := Compile(mustRegexes(t, "ab*c"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run([]byte("a" + strings.Repeat("b", 2000) + "c"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks == 0 {
		t.Fatal("input did not force an overlap fallback")
	}
	if ss := e.runPool.Get(); ss != nil {
		t.Fatal("a session that took a fallback went back to the pool")
	}
	if res, err = e.Run([]byte("abc abbc")); err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks != 0 || res.TotalMatches != 2 {
		t.Fatalf("run after a fallback: %d fallbacks, %d matches; want a fresh session's 0 and 2",
			res.Fallbacks, res.TotalMatches)
	}

	cfg.Inject = faultinject.New(3).ArmNth(faultinject.LaunchFail, 1)
	if e, err = Compile(mustRegexes(t, "ab*c"), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run([]byte("abc")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected launch failure", err)
	}
	if ss := e.runPool.Get(); ss != nil {
		t.Fatal("a session whose launch failed went back to the pool")
	}
}
