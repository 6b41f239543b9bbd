package kernel

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/bitstream"
	"bitgen/internal/charclass"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/rx"
	"bitgen/internal/transpose"
)

// tinyGrid uses 128-bit blocks so even short inputs cross many block
// boundaries, stressing the recompute machinery.
var tinyGrid = gpusim.Grid{CTAs: 1, Threads: 4, UnitBits: 32, UnitsPerThread: 1}

var allModes = []Mode{ModeBase, ModeDTMStatic, ModeDTM}

// interpRef runs the golden whole-stream interpreter.
func interpRef(t *testing.T, p *ir.Program, basis *transpose.Basis) map[string]*bitstream.Stream {
	t.Helper()
	res, err := ir.Interpret(p, basis, ir.InterpOptions{})
	if err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	return res.Outputs
}

// testSession is a compiled program with an executor of its own.
type testSession struct {
	*Session
	ex *Executor
}

func newTestSession(p *ir.Program, cfg Config, a *arena.Arena) (testSession, error) {
	s, err := Compile(p, cfg)
	if err != nil {
		return testSession{}, err
	}
	return testSession{s, NewExecutor(a)}, nil
}

func (s testSession) Run(ctx context.Context, basis *transpose.Basis) ([]bitstream.Compact, gpusim.CTAStats, error) {
	return s.Session.Run(ctx, s.ex, basis)
}

func (s testSession) Close() { s.ex.Close() }

// runStreams is s.Run with its compact outputs expanded to streams.
func runStreams(s testSession, basis *transpose.Basis) ([]*bitstream.Stream, gpusim.CTAStats, error) {
	outs, stats, err := s.Run(context.Background(), basis)
	streams := make([]*bitstream.Stream, len(outs))
	for i, o := range outs {
		streams[i] = o.Stream(basis.N)
	}
	return streams, stats, err
}

// checkAllModes asserts every execution mode matches the interpreter.
func checkAllModes(t *testing.T, pattern, input string, grid gpusim.Grid) {
	t.Helper()
	p, err := lower.Single("re", pattern)
	if err != nil {
		t.Fatalf("lower %q: %v", pattern, err)
	}
	basis := transpose.Transpose([]byte(input))
	want := interpRef(t, p, basis)["re"]
	for _, mode := range allModes {
		res, err := Run(p, basis, Config{Grid: grid, Mode: mode})
		if err != nil {
			t.Fatalf("%v on %q input %q: %v", mode, pattern, input, err)
		}
		if got := ir.ExtendNullableOutputs(p, res.Outputs)["re"]; !got.Equal(want) {
			t.Errorf("%v on %q input len %d:\n got  %s\n want %s",
				mode, pattern, len(input), got, want)
		}
	}
}

func TestAllModesMatchInterpreterFixedCases(t *testing.T) {
	long := strings.Repeat("xyzzy abcd ", 30)
	cases := []struct{ pattern, input string }{
		{"cat", "the cat sat on the catalog " + strings.Repeat("cat", 20)},
		{"a(bc)*d", "ad " + strings.Repeat("abcbcd ", 15) + "abcbcbcbcbcbcbcd"},
		{"(abc)|d", strings.Repeat("abcdabce", 10)},
		{"a+b", strings.Repeat("aaab aab ab b ", 8)},
		{"[a-m]*z", long + "z" + long},
		{"x.?y", strings.Repeat("xy xay xaby ", 10)},
		{"\\d{2,4}", "1 12 123 1234 12345 123456 " + strings.Repeat("9", 40)},
		{"(ab|cd)+", strings.Repeat("ababcdab..cd", 12)},
		{"q[^u]*k", "qk quack qik qiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiik"},
	}
	for _, c := range cases {
		checkAllModes(t, c.pattern, c.input, tinyGrid)
	}
}

func TestChainCrossingManyBlocks(t *testing.T) {
	// A (bc)* chain far longer than one 128-bit block: forces dynamic
	// overlap growth and, past the cap, the materialization fallback.
	input := "a" + strings.Repeat("bc", 100) + "d...padding to make more blocks..."
	checkAllModes(t, "a(bc)*d", input, tinyGrid)
}

func TestDotStarAcrossBlocks(t *testing.T) {
	// MatchStar carries crossing block boundaries: lines longer than one
	// block. The class-star path has no while loop.
	line := strings.Repeat("m", 300)
	input := "start" + line + "end\nstart-short-end\n" + line
	checkAllModes(t, "start.*end", input, tinyGrid)
}

func TestCarryRunLongerThanCapFallsBack(t *testing.T) {
	// A single class run much longer than the overlap cap: the StarThru
	// carry must trigger the Section 8.2 fallback, not wrong answers.
	input := "a" + strings.Repeat("b", 2000) + "c"
	p := lower.MustSingle("re", "ab*c")
	basis := transpose.Transpose([]byte(input))
	want := interpRef(t, p, basis)["re"]
	res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs["re"].Equal(want) {
		t.Fatalf("fallback produced wrong result")
	}
	if res.FallbackSegments == 0 {
		t.Fatal("expected at least one materialized fallback segment")
	}
}

func TestWhileChainLongerThanCapFallsBack(t *testing.T) {
	input := "x" + strings.Repeat("de", 400) + "y"
	p := lower.MustSingle("re", "x(de)*y")
	basis := transpose.Transpose([]byte(input))
	want := interpRef(t, p, basis)["re"]
	res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs["re"].Equal(want) {
		t.Fatal("fallback produced wrong result")
	}
	if res.FallbackSegments == 0 {
		t.Fatal("expected a materialized while loop")
	}
}

func TestGuardsPreserveSemantics(t *testing.T) {
	// Build a program with a genuine zero path and a guard, then check
	// guarded interleaved execution against the interpreter.
	p := lower.MustSingle("re", "zebra(qu)*x")
	input := strings.Repeat("no zebras here, just text. ", 10)
	basis := transpose.Transpose([]byte(input))
	want := interpRef(t, p, basis)["re"]
	res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM, HonorGuards: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs["re"].Equal(want) {
		t.Fatal("guarded run diverges")
	}
}

func TestMultiOutputGroup(t *testing.T) {
	regexes := []lower.Regex{
		{Name: "r0", AST: rx.MustParse("ab+c")},
		{Name: "r1", AST: rx.MustParse("b(c|d)*e")},
		{Name: "r2", AST: rx.MustParse("[xy]{2,3}")},
	}
	p, err := lower.Group(regexes, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("abbbc bcdcde xxy xyx abce ", 12))
	basis := transpose.Transpose(input)
	want := interpRef(t, p, basis)
	for _, mode := range allModes {
		res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got := ir.ExtendNullableOutputs(p, res.Outputs)
		for name, w := range want {
			if !got[name].Equal(w) {
				t.Errorf("%v output %s diverges", mode, name)
			}
		}
	}
}

func TestQuickRandomProgramsAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized executor equivalence")
	}
	rng := rand.New(rand.NewSource(777))
	alphabet := []byte("abc")
	for trial := 0; trial < 120; trial++ {
		ast := rx.Generate(rng, rx.GenOptions{MaxDepth: 3, Alphabet: alphabet, MaxRepeat: 3})
		p, err := lower.Group([]lower.Regex{{Name: "re", AST: ast}}, lower.Options{})
		if err != nil {
			t.Fatalf("lower %q: %v", ast.String(), err)
		}
		n := 30 + rng.Intn(150)
		input := make([]byte, n)
		for i := range input {
			input[i] = alphabet[rng.Intn(len(alphabet))]
		}
		basis := transpose.Transpose(input)
		want := interpRef(t, p, basis)["re"]
		for _, mode := range allModes {
			res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: mode})
			if err != nil {
				t.Fatalf("trial %d %v on %q: %v", trial, mode, ast.String(), err)
			}
			if got := ir.ExtendNullableOutputs(p, res.Outputs)["re"]; !got.Equal(want) {
				t.Fatalf("trial %d %v on %q input %q:\n got  %s\n want %s",
					trial, mode, ast.String(), input, got, want)
			}
		}
	}
}

func TestStatsShapeAcrossModes(t *testing.T) {
	// Table 4's qualitative shape: Base materializes many intermediates and
	// many loops; DTM- collapses loops; DTM reaches one loop and zero
	// intermediates, with far less DRAM traffic.
	p := lower.MustSingle("re", "a(bc)*d|e[fg]{2,5}h")
	input := []byte(strings.Repeat("abcbcd efgfgh xxxx ", 40))
	basis := transpose.Transpose(input)
	get := func(mode Mode) gpusim.CTAStats {
		res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return res.Stats
	}
	base := get(ModeBase)
	dtmMinus := get(ModeDTMStatic)
	dtm := get(ModeDTM)

	if !(base.Loops > dtmMinus.Loops && dtmMinus.Loops > dtm.Loops) {
		t.Errorf("loop counts not decreasing: base=%d dtm-=%d dtm=%d",
			base.Loops, dtmMinus.Loops, dtm.Loops)
	}
	if dtm.Loops != 1 {
		t.Errorf("DTM loops = %d, want 1", dtm.Loops)
	}
	if dtm.IntermediateStreams != 0 {
		t.Errorf("DTM intermediates = %d, want 0", dtm.IntermediateStreams)
	}
	if base.IntermediateStreams == 0 {
		t.Error("base should materialize intermediates")
	}
	dramDTM := dtm.DRAMReadBytes + dtm.DRAMWriteBytes
	dramBase := base.DRAMReadBytes + base.DRAMWriteBytes
	if dramDTM*4 >= dramBase {
		t.Errorf("DTM DRAM traffic %d not well below Base %d", dramDTM, dramBase)
	}
}

func TestRecomputeAccounting(t *testing.T) {
	p := lower.MustSingle("re", "abcde")
	input := []byte(strings.Repeat("abcdefghij", 20)) // 200 bytes, many blocks
	basis := transpose.Transpose(input)
	res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.CommittedBits != int64(len(input)) {
		t.Errorf("CommittedBits = %d, want %d", st.CommittedBits, len(input))
	}
	if st.RecomputedBits == 0 {
		t.Error("expected nonzero recompute for a 5-char literal across 128-bit blocks")
	}
	// One stream bit per input byte: 200 bits over 128-bit blocks.
	if want := int64((len(input) + tinyGrid.BlockBits() - 1) / tinyGrid.BlockBits()); st.Windows != want {
		t.Errorf("Windows = %d, want %d", st.Windows, want)
	}
	if st.StaticDelta != 4 {
		t.Errorf("StaticDelta = %d, want 4", st.StaticDelta)
	}
}

func TestZeroBlockSkippingReducesWork(t *testing.T) {
	// Input where the pattern head never matches: with guards the shifts
	// and barriers on the dead path should drop measurably.
	p := buildGuardedChain()
	input := []byte(strings.Repeat("no match material here at all...", 30))
	basis := transpose.Transpose(input)
	off, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM, HonorGuards: false})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM, HonorGuards: true})
	if err != nil {
		t.Fatal(err)
	}
	if !off.Outputs["re"].Equal(on.Outputs["re"]) {
		t.Fatal("guards changed semantics")
	}
	if on.Stats.GuardSkips == 0 {
		t.Fatal("no guards were taken on an all-mismatch input")
	}
	if on.Stats.Barriers >= off.Stats.Barriers {
		t.Errorf("guards did not reduce barriers: %d vs %d", on.Stats.Barriers, off.Stats.Barriers)
	}
}

// buildGuardedChain hand-builds a shift-heavy zero path guarded at its
// head (the real insertion pass lives in package passes; this keeps the
// kernel tests self-contained): the class 'q' never occurs in the test
// input, so every block skips the chain.
func buildGuardedChain() *ir.Program {
	b := ir.NewBuilder()
	q := b.MatchClass(charclass.Single('q'))
	ca := b.MatchClass(charclass.Single('!'))
	cb := b.MatchClass(charclass.Single('?'))
	e := b.MatchClass(charclass.Single('e'))
	guard := &ir.Guard{Cond: q, Skip: 6}
	p := b.Program()
	p.Stmts = append(p.Stmts, guard)
	b2 := b // continue building after the guard
	t1 := b2.Advance(q, 1)
	t2 := b2.And(t1, ca)
	t3 := b2.Advance(t2, 1)
	t4 := b2.And(t3, cb)
	t5 := b2.Advance(t4, 1)
	t6 := b2.And(t5, ca)
	out := b2.Or(t6, e)
	b2.Output("re", out)
	return b2.Program()
}

func TestSmallAndEmptyInputs(t *testing.T) {
	for _, input := range []string{"", "a", "ab", "abc"} {
		checkAllModes(t, "ab*c", input, tinyGrid)
	}
}

func TestDefaultGridLargeInput(t *testing.T) {
	// Full-size default grid over a larger input: one window plus change.
	rng := rand.New(rand.NewSource(5))
	words := []string{"cat ", "dog ", "catalog ", "concat ", "xyz "}
	var b strings.Builder
	for b.Len() < 40_000 {
		b.WriteString(words[rng.Intn(len(words))])
	}
	checkAllModes(t, "cat|dog", b.String(), gpusim.DefaultGrid())
}
