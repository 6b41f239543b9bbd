package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitgen/internal/arena"
	"bitgen/internal/bgerr"
	"bitgen/internal/gpusim"
	"bitgen/internal/workload"
)

// atProcs runs the test body at GOMAXPROCS n, so the fan-out is as wide on a
// two-core host as on the ones it is meant for.
func atProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// settledGoroutines polls until the goroutine count is back at want: a worker
// has returned from wg.Done a moment before the runtime stops counting it.
func settledGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the call: a worker outlived it", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestFanOutReturnsLowestFailure: whatever fails first on the clock, the
// error returned is the lowest failing index's, every index below it ran,
// none ran twice and nothing outlives the call — inline and concurrent alike.
func TestFanOutReturnsLowestFailure(t *testing.T) {
	for _, procs := range []int{1, 4} {
		atProcs(t, procs)
		base := runtime.NumGoroutine()
		for round := 0; round < 200; round++ {
			const n = 64
			fails := map[int]bool{17 + round%5: true, 23: true, 40: true}
			var ran [n]atomic.Int32
			err := fanOut(n, func(_, i int) error {
				ran[i].Add(1)
				if i%3 == round%3 {
					runtime.Gosched() // let a later index overtake an earlier one
				}
				if fails[i] {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			lowest := 17 + round%5
			if err == nil || err.Error() != fmt.Sprintf("index %d", lowest) {
				t.Fatalf("procs %d round %d: err = %v, want index %d's", procs, round, err, lowest)
			}
			for i := range ran {
				if c := ran[i].Load(); c > 1 || (i <= lowest && c != 1) {
					t.Fatalf("procs %d round %d: index %d ran %d times (lowest failure %d)", procs, round, i, c, lowest)
				}
			}
		}
		if err := fanOut(0, func(int, int) error { return errors.New("ran") }); err != nil {
			t.Fatalf("procs %d: empty fan-out: %v", procs, err)
		}
		settledGoroutines(t, base)
	}
}

// TestFanOutReraisesWorkerPanic: a panic on a worker goroutine would kill the
// process where a serial loop's would unwind to the caller's recover; fanOut
// carries it back to the calling goroutine after every worker has exited.
func TestFanOutReraisesWorkerPanic(t *testing.T) {
	atProcs(t, 4)
	base := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want the worker's panic value", r)
				}
			}()
			_ = fanOut(32, func(_, i int) error {
				if i == 9 {
					panic("boom")
				}
				runtime.Gosched()
				return nil
			})
			t.Fatal("fanOut returned normally")
		}()
	}
	settledGoroutines(t, base)
}

// TestCompileReturnsLowestFailingGroup: with several CTA groups over the
// instruction limit and the groups compiling concurrently, every compile is
// refused with the LimitError of the lowest such group — the one a serial
// compile stops at — not of whichever group a worker reached first.
func TestCompileReturnsLowestFailingGroup(t *testing.T) {
	// Sixteen patterns, one per group, groups ordered by descending name
	// length: cheap literals with three costly bounded repeats in between.
	var patterns []string
	for i := 0; i < 16; i++ {
		p := strings.Repeat("a", 40-2*i)
		if i == 5 || i == 9 || i == 12 {
			p = "[a-z]{1,30}" + strings.Repeat("b", len(p)-len("[a-z]{1,30}"))
		}
		patterns = append(patterns, p)
	}
	cfg := BitGenDefault()
	cfg.Grid = gpusim.Grid{CTAs: 16, Threads: 8, UnitBits: 32, UnitsPerThread: 1}
	cfg.MaxProgramInstructions = 90
	atProcs(t, 1)
	_, serial := Compile(mustRegexes(t, patterns...), cfg)
	var le *bgerr.LimitError
	if !errors.As(serial, &le) || !strings.Contains(serial.Error(), "group 5:") {
		t.Fatalf("serial compile: %v, want group 5's program-instructions LimitError", serial)
	}
	for _, gi := range []int{9, 12} { // the other two costly groups are over it too
		if _, err := Compile(mustRegexes(t, patterns[gi]), cfg); !errors.Is(err, bgerr.ErrLimit) {
			t.Fatalf("pattern %d alone: err = %v, want ErrLimit", gi, err)
		}
	}
	for gi := 0; gi < 5; gi++ { // and the groups below the lowest are under it
		if _, err := Compile(mustRegexes(t, patterns[gi]), cfg); err != nil {
			t.Fatalf("pattern %d alone: %v", gi, err)
		}
	}
	atProcs(t, 4)
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		_, err := Compile(mustRegexes(t, patterns...), cfg)
		if err == nil || err.Error() != serial.Error() {
			t.Fatalf("compile %d: %v, want the serial compile's %v", i, err, serial)
		}
	}
	settledGoroutines(t, base)
}

// cancelAtClaim is a context that gets cancelled, from a goroutine of its
// own, when the compile claims its at-th group: other workers are mid-group.
type cancelAtClaim struct {
	context.Context
	claims, refused atomic.Int64 // claims made, and those that saw the cancellation
	at              int64
	cancel          context.CancelFunc
}

func (c *cancelAtClaim) Err() error {
	if c.claims.Add(1) == c.at {
		done := make(chan struct{})
		go func() { c.cancel(); close(done) }()
		<-done
	}
	err := c.Context.Err()
	if err != nil {
		c.refused.Add(1)
	}
	return err
}

// TestCompileCanceledInFlight: a compile cancelled while its groups are being
// compiled returns ErrCanceled, and no fan-out worker outlives the call —
// after a cancellation, a success and a refusal alike.
func TestCompileCanceledInFlight(t *testing.T) {
	atProcs(t, 4)
	app, err := workload.Megaset(300, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, at := range []int64{1, 10, 200} {
		inner, cancel := context.WithCancel(context.Background())
		ctx := &cancelAtClaim{Context: inner, at: at, cancel: cancel}
		_, err := CompileContext(ctx, app.Regexes, BitGenDefault())
		if !errors.Is(err, bgerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at claim %d: err = %v, want ErrCanceled", at, err)
		}
		// A worker that sees the cancellation claims nothing further.
		if n := ctx.refused.Load(); n > int64(runtime.GOMAXPROCS(0)) {
			t.Fatalf("cancelled at claim %d: %d claims made after the cancellation, more than one per worker", at, n)
		}
		settledGoroutines(t, base)
	}
	e, err := CompileContext(context.Background(), app.Regexes, BitGenDefault())
	if err != nil {
		t.Fatal(err)
	}
	settledGoroutines(t, base)
	if _, err := e.Run(app.Input); err != nil { // session build and launch fan out too
		t.Fatal(err)
	}
	settledGoroutines(t, base)
	cfg := BitGenDefault()
	cfg.MaxProgramInstructions = 1
	if _, err := Compile(app.Regexes, cfg); !errors.Is(err, bgerr.ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	settledGoroutines(t, base)
}

// TestFanOutSlotsAreExclusive: the worker slot fn is handed is below the
// width, and no two calls in flight hold the same one.
func TestFanOutSlotsAreExclusive(t *testing.T) {
	atProcs(t, 4)
	var busy [4]atomic.Int32
	for round := 0; round < 50; round++ {
		if err := fanOut(64, func(w, i int) error {
			if w < 0 || w >= len(busy) || busy[w].Add(1) != 1 {
				return fmt.Errorf("index %d on slot %d, which is out of range or in use", i, w)
			}
			runtime.Gosched()
			busy[w].Add(-1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// handOff is a context whose first Err call — a wide launch checks it as it
// claims a group — waits for a second one: the claim of another fanOut worker,
// which then launches its group on an executor of its own. It forces the
// launch across two executors whatever the scheduler does.
type handOff struct {
	context.Context
	calls  atomic.Int64
	once   sync.Once
	second chan struct{}
}

func (h *handOff) Err() error {
	if h.calls.Add(1) == 1 {
		<-h.second
	} else {
		h.once.Do(func() { close(h.second) })
	}
	return nil
}

// TestWideLaunchSharesCompiledGroups: two fanOut workers launch the groups of
// one session, each on an executor of its own over the compiled groups they
// share — run it with -race. Every wide execute, from the first on, finds the
// matches and charges the CTAStats of a session whose one executor ran every
// group in turn, over inputs whose length changes.
func TestWideLaunchSharesCompiledGroups(t *testing.T) {
	atProcs(t, 2)
	app, err := workload.Load("Brill", workload.Options{RegexScale: 0.02, InputBytes: 24 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(mustRegexes(t, app.Patterns...), BitGenDefault())
	if err != nil {
		t.Fatal(err)
	}
	wide, err := e.NewScanSession(0, &arena.Arena{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Close()
	serial, err := e.NewScanSession(0, &arena.Arena{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	ctx, matches := context.Background(), 0
	for round, n := range []int{len(app.Input), len(app.Input) / 3, len(app.Input)} {
		input := app.Input[:n]
		if err := wide.execute(&handOff{Context: ctx, second: make(chan struct{})}, input, true); err != nil {
			t.Fatal(err)
		}
		got := wide.mergeMatches(0, 0, nil)
		wide.clearOuts()
		want, err := serial.Scan(ctx, input, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || !slices.Equal(wide.stats, serial.stats) {
			t.Fatalf("round %d: the wide launch found %d matches, the serial one %d; CTAStats equal %v",
				round, len(got), len(want), slices.Equal(wide.stats, serial.stats))
		}
		matches += len(got)
	}
	if len(e.groups) < 8 || matches == 0 || wide.xs[1] == nil || serial.xs[1] != nil {
		t.Fatalf("%d groups, %d matches; the wide launch used a second executor %v, the serial one %v", len(e.groups), matches, wide.xs[1] != nil, serial.xs[1] != nil)
	}
}
