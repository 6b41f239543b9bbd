package kernel

import (
	"context"
	"errors"
	"testing"
	"time"

	"bitgen/internal/bgerr"
	"bitgen/internal/faultinject"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/transpose"
)

// spinProgram builds a while loop whose condition never clears: without a
// cap or cancellation it iterates forever.
func spinProgram() *ir.Program {
	p := &ir.Program{}
	c := p.NewVar()
	p.Stmts = []ir.Stmt{
		&ir.Assign{Dst: c, Expr: ir.Ones{}},
		&ir.While{Cond: c, Body: []ir.Stmt{
			&ir.Assign{Dst: c, Expr: ir.Ones{}},
		}},
	}
	p.Outputs = []ir.Output{{Name: "spin", Var: c}}
	return p
}

func TestWhileCapReturnsTypedLimitError(t *testing.T) {
	p := spinProgram()
	basis := transpose.Transpose([]byte("0123456789abcdef"))
	_, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeSequential, MaxWhileIterations: 8})
	if err == nil {
		t.Fatal("spin program with cap 8 returned no error")
	}
	if !errors.Is(err, bgerr.ErrLimit) {
		t.Fatalf("error %v does not satisfy errors.Is(_, bgerr.ErrLimit)", err)
	}
	var le *bgerr.LimitError
	if !errors.As(err, &le) || le.Limit != "while-iterations" {
		t.Fatalf("error %v is not a while-iterations LimitError", err)
	}
}

func TestCancellationInterruptsSpinPromptly(t *testing.T) {
	p := spinProgram()
	basis := transpose.Transpose([]byte("0123456789abcdef"))
	// A cap this large would spin for many minutes; cancellation must cut
	// it short at a while-iteration boundary.
	cfg := Config{Grid: tinyGrid, Mode: ModeSequential, MaxWhileIterations: 1 << 30}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, p, basis, cfg)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled spin returned no error")
	}
	if !errors.Is(err, bgerr.ErrCanceled) {
		t.Fatalf("error %v does not satisfy errors.Is(_, bgerr.ErrCanceled)", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — not prompt", elapsed)
	}
}

func TestCancellationBeforeRunWindowed(t *testing.T) {
	p := lower.MustSingle("re", "a(bc)*d")
	basis := transpose.Transpose([]byte("abcbcbcd"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, p, basis, Config{Grid: tinyGrid, Mode: ModeDTM})
	if !errors.Is(err, bgerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v", err)
	}
}

func TestInjectedWhileCapTripsRegardlessOfBound(t *testing.T) {
	p := lower.MustSingle("re", "x(de)*y")
	input := "x" + "dedededede" + "y"
	basis := transpose.Transpose([]byte(input))
	inj := faultinject.New(3).ArmNth(faultinject.WhileCap, 1)
	_, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeSequential, Inject: inj})
	if !errors.Is(err, bgerr.ErrLimit) {
		t.Fatalf("injected while-cap returned %v, want ErrLimit", err)
	}
	if inj.Fired(faultinject.WhileCap) == 0 {
		t.Fatal("while-cap point never fired")
	}
}

func TestInjectedForceFallbackStaysExact(t *testing.T) {
	p := lower.MustSingle("re", "x(de)*y")
	input := "x" + "dededede" + "y - padding so several windows run - mmmm"
	basis := transpose.Transpose([]byte(input))
	want := interpRef(t, p, basis)["re"]
	inj := faultinject.New(11).ArmNth(faultinject.ForceFallback, 1)
	res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM, Inject: inj})
	if err != nil {
		t.Fatalf("forced fallback errored: %v", err)
	}
	if res.FallbackSegments == 0 {
		t.Fatal("forced fallback did not materialize any segment")
	}
	if !res.Outputs["re"].Equal(want) {
		t.Fatal("forced fallback changed the match results")
	}
	if inj.Fired(faultinject.ForceFallback) == 0 {
		t.Fatal("force-fallback point never fired")
	}
}

func TestInjectedTileCorruptionIsContained(t *testing.T) {
	p := lower.MustSingle("re", "cat")
	input := "the cat sat on the catalog and another cat appeared late"
	basis := transpose.Transpose([]byte(input))
	want := interpRef(t, p, basis)["re"]

	inj := faultinject.New(21).ArmNth(faultinject.TileCorrupt, 1)
	res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM, Inject: inj})
	if err != nil {
		t.Fatalf("corrupted run errored instead of completing: %v", err)
	}
	if inj.Fired(faultinject.TileCorrupt) == 0 {
		t.Fatal("tile-corrupt point never fired")
	}
	if res.Outputs["re"].Equal(want) {
		t.Fatal("corrupted tile produced bit-identical outputs — injection had no effect")
	}

	// The fault is contained to the poisoned run: a clean run of the same
	// program is exact.
	clean, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM})
	if err != nil {
		t.Fatalf("clean rerun errored: %v", err)
	}
	if !clean.Outputs["re"].Equal(want) {
		t.Fatal("clean rerun diverges from interpreter")
	}
}
