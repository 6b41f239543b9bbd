package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/bgerr"
	"bitgen/internal/faultinject"
	"bitgen/internal/gpusim"
	"bitgen/internal/kernel"
	"bitgen/internal/workload"
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

// TestKernelFaultsCarryTheirErrorClass pins the class each kernel fault
// reaches a caller with through the launch boundary: a failed launch is
// ErrTransient (environmental, a caller may retry it), a kernel panic a
// contained *bgerr.InternalError, a tripped while-iteration cap ErrLimit (a
// deterministic refusal no retry changes). Callers branch on these classes,
// so a fault that changes class changes their behavior with it.
func TestKernelFaultsCarryTheirErrorClass(t *testing.T) {
	var ie *bgerr.InternalError
	for _, tc := range []struct {
		point faultinject.Point
		class func(error) bool
	}{
		{faultinject.LaunchFail, func(err error) bool { return errors.Is(err, bgerr.ErrTransient) }},
		{faultinject.KernelPanic, func(err error) bool { return errors.As(err, &ie) }},
		{faultinject.WhileCap, func(err error) bool { return errors.Is(err, bgerr.ErrLimit) }},
	} {
		// Base mode runs the loop as a global while, where the cap sits.
		inj := faultinject.New(1).ArmNth(tc.point, 1)
		e, err := Compile(mustRegexes(t, "x(de)*y"), Config{Mode: kernel.ModeBase, Grid: smallGrid, Inject: inj})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run([]byte("xdededededey")); !tc.class(err) {
			t.Errorf("%s: run returned %v", tc.point, err)
		}
		if inj.Fired(tc.point) == 0 {
			t.Errorf("%s never fired", tc.point)
		}
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
	// Base mode materializes what crosses its loops, so even a small
	// pattern set exceeds a one-byte budget.
	cfg := Config{Mode: kernel.ModeBase, Grid: smallGrid, MemoryBudgetBytes: 1}
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
	if ss := e.runPool.get(); ss != nil {
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
	if ss := e.runPool.get(); ss != nil {
		t.Fatal("a session whose launch failed went back to the pool")
	}

	// A streaming borrower puts its session back whatever happened; the chunk
	// that met a kernel panic left its mark and the pool refuses it.
	cfg.Inject = faultinject.New(3).ArmNth(faultinject.KernelPanic, 2)
	if e, err = Compile(mustRegexes(t, "ab*c"), cfg); err != nil {
		t.Fatal(err)
	}
	ss, err := e.GetSession(nil, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if ms, err := ss.Scan(context.Background(), []byte("abc abbc"), 0, 0, nil); err != nil || len(ms) != 2 {
		t.Fatalf("clean chunk: %d matches, err %v", len(ms), err)
	}
	var ie *bgerr.InternalError
	if _, err := ss.Scan(context.Background(), []byte("abc"), 0, 0, nil); !errors.As(err, &ie) {
		t.Fatalf("err = %v, want the contained kernel panic", err)
	}
	e.PutSession(ss)
	if ss := e.runPool.get(); ss != nil {
		t.Fatal("a session that saw a kernel panic went back to the pool")
	}

	// A cancellation — a client hanging up — or a budget refusal is not a
	// failure of the session: it keeps no mark and scans the next chunk like a
	// fresh one. Two groups, cancelled between the first and the second; a
	// one-byte budget no scan fits (sync.Pool may drop a Put under the race
	// detector, so the mark is read, not the pool).
	cfg.Inject = nil
	cfg.Grid.CTAs = 2
	for _, budget := range []int64{0, 1} {
		if cfg.MemoryBudgetBytes = budget; budget > 0 {
			cfg.Mode = kernel.ModeBase // materializes what crosses its loops
		}
		if e, err = Compile(mustRegexes(t, "ab*c", "b+c"), cfg); err != nil {
			t.Fatal(err)
		}
		if ss, err = e.GetSession(nil, 7, false); err != nil {
			t.Fatal(err)
		}
		chunk := []byte("abc abbc bc")
		ctx, want := context.Context(&doneAfter{Context: context.Background(), open: 1}), bgerr.ErrCanceled
		if budget > 0 {
			ctx, want = context.Background(), bgerr.ErrLimit
		}
		if _, err := ss.Scan(ctx, chunk, 0, 0, nil); !errors.Is(err, want) {
			t.Fatalf("budget %d: err = %v, want %v", budget, err, want)
		}
		if ss.failed {
			t.Fatalf("budget %d: %v marked the session failed", budget, want)
		}
		ss.e.cfg.MemoryBudgetBytes = 0
		got, err := ss.Scan(context.Background(), chunk, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := e.Run(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 || !reflect.DeepEqual(got, fresh.Matches) {
			t.Fatalf("budget %d: the reused session lists %v, a fresh one %v", budget, got, fresh.Matches)
		}
	}
}

// doneAfter is a context that cancels itself between kernel runs: each run
// captures Done once, the first open callers get a channel that never closes
// and later ones a closed one.
type doneAfter struct {
	context.Context
	open int
}

func (c *doneAfter) Done() <-chan struct{} {
	if c.open--; c.open >= 0 {
		return nil
	}
	closed := make(chan struct{})
	close(closed)
	return closed
}

func (c *doneAfter) Err() error {
	if c.open >= 0 {
		return nil
	}
	return context.Canceled
}

// TestMatchlessUnboundedOutputSurvivesTheProbe is the same promise for patterns
// with a general star, whose windows the kernel re-executes with flooded
// margins (the saturation probe) before committing them: the probe computes
// the output — all zero where it is committed — and must leave it without
// the words the real pass gave it none of. The set is a slice of the
// Brill generator's (lower-case words); the input has none of its letters.
func TestMatchlessUnboundedOutputSurvivesTheProbe(t *testing.T) {
	app, err := workload.Load("Brill", workload.Options{RegexScale: 0.05, InputBytes: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	e, err := Compile(app.Regexes[:8], cfg)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("0123 456 789. ", 300))
	ss, err := e.NewScanSession(len(input), &arena.Arena{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if err := ss.execute(context.Background(), input, false); err != nil {
		t.Fatal(err)
	}
	loops := int64(0)
	for gi, outs := range ss.outs {
		loops += ss.stats[gi].Loops
		for oi, o := range e.groups[gi].Outputs {
			if len(outs[oi]) > 0 {
				t.Errorf("output %s has %d words, %d set bits", o.Name, len(outs[oi]), outs[oi].Popcount())
			}
		}
	}
	if loops == 0 {
		t.Fatal("no group has a loop; nothing was probed")
	}
	if matches := ss.mergeMatches(0, 0, nil); len(matches) != 0 {
		t.Fatalf("merged %d matches from an input that has none", len(matches))
	}
	ss.clearOuts()
	res, err := e.RunContext(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMatches != 0 || len(res.Matches) != 0 || len(res.MatchCounts) != 8 {
		t.Fatalf("%d matches, %d counted over %d patterns; want none over 8", len(res.Matches), res.TotalMatches, len(res.MatchCounts))
	}
}

// TestMatchlessOutputHasNoWords: an output no window committed a set bit to
// comes back with no words, which the collectors never look at again: no
// matches, a count of zero, and the same answer from the pattern that does
// match beside it.
func TestMatchlessOutputHasNoWords(t *testing.T) {
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	e, err := Compile(mustRegexes(t, "cat", "zebra"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("the cat sat on the mat. ", 300))
	ss, err := e.NewScanSession(len(input), &arena.Arena{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if err := ss.execute(context.Background(), input, false); err != nil {
		t.Fatal(err)
	}
	for gi, outs := range ss.outs {
		for oi, o := range e.groups[gi].Outputs {
			if none := len(outs[oi]) == 0; none != (o.Name == "zebra") {
				t.Errorf("output %s: no words = %v", o.Name, none)
			}
		}
	}
	matches := ss.mergeMatches(0, 0, nil)
	ss.clearOuts()
	if len(matches) != 300 {
		t.Fatalf("merged %d matches, want the 300 of cat", len(matches))
	}
	for _, run := range []func(context.Context, []byte) (*Result, error){e.RunContext, e.RunCounts} {
		res, err := run(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}
		if res.MatchCounts["zebra"] != 0 || res.MatchCounts["cat"] != 300 || res.TotalMatches != 300 {
			t.Fatalf("counts %v, total %d; want cat 300 and zebra 0", res.MatchCounts, res.TotalMatches)
		}
		if _, ok := res.MatchCounts["zebra"]; !ok {
			t.Fatal("the matchless pattern has no count entry")
		}
		for _, m := range res.Matches {
			if e.matchNames[m.Rank] != "cat" {
				t.Fatalf("match %+v from a pattern that cannot match", m)
			}
		}
	}
}
