package kernel

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"bitgen/internal/bitstream"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/passes"
	"bitgen/internal/rx"
	"bitgen/internal/transpose"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

const ctaStatsGolden = "testdata/ctastats.golden"

// pinnedCase is one kernel launch whose outputs are checked against the
// whole-stream interpreter and whose modeled cost is pinned by
// testdata/ctastats.golden. The golden was generated from the
// statement-at-a-time windowed interpreter this package used to carry, so
// it states the charging rules independently of the superblock executor.
type pinnedCase struct {
	label string
	prog  *ir.Program
	input []byte
	cfg   Config
}

// run executes the case, asserts its outputs equal the reference
// interpreter's, and returns its golden line: the full CTAStats plus the
// fallback-segment count.
func (c pinnedCase) run(t *testing.T) string {
	t.Helper()
	basis := transpose.Transpose(c.input)
	res, err := Run(c.prog, basis, c.cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	got := ir.ExtendNullableOutputs(c.prog, res.Outputs)
	for name, want := range interpRef(t, c.prog, basis) {
		if !got[name].Equal(want) {
			t.Fatalf("%s: output %s diverges from the interpreter:\n got  %s\n want %s", c.label, name, got[name], want)
		}
	}
	return fmt.Sprintf("%s\t%+v\tfallbacks=%d", c.label, res.Stats, res.FallbackSegments)
}

// optimize runs the pass pipeline the pinned cases share.
func optimize(p *ir.Program, guards bool) *ir.Program {
	passes.Rebalance(p, passes.RebalanceOptions{})
	passes.MergeBarriers(p, passes.MergeOptions{MergeSize: 4})
	if guards {
		passes.InsertGuards(p, passes.ZBSOptions{Interval: 3})
	}
	return p
}

// handpickedCases covers pattern shapes one by one: fused shift+bitwise
// pairs, bin-pair register tiles, carries, loops, and guard skip ranges that
// end between a def and its use (a fusion-boundary trap).
func handpickedCases() []pinnedCase {
	cases := []struct {
		pattern string
		input   string
	}{
		{"fox", "the quick brown fox jumps over the lazy dog fox"},
		{"fox|dog", "fox and dog and fox and dog over and over fox"},
		{"qu[a-z]{2,6}k", "quack quark quik quk quandongk quiiiiik"},
		{"l.zy", "lazy lizy lzzy llzy lazy"},
		{"0\\d{3}", "dial 0123 or 0999 not 012 maybe 04567"},
		{"a[ab]*b", "aababababbbaabb abab aaa bbb ab"},
		{"(c{2}(a|b)){1,3}", "acbacbadcbdbcdcacbbccaccbccaccbdbccab"},
		{"x+y+z+", "xyz xxyyzz xxxyyyzzz xy yz xz xyzzz"},
		{"[0-9]+\\.[0-9]+", "pi is 3.14159 and e is 2.71828 not 42"},
	}
	var out []pinnedCase
	for _, mode := range []Mode{ModeBase, ModeDTMStatic, ModeDTM} {
		for _, tc := range cases {
			out = append(out, pinnedCase{
				label: mode.String() + "/" + tc.pattern,
				prog:  optimize(lower.MustSingle("re", tc.pattern), true),
				input: []byte(tc.input),
				cfg:   Config{Grid: tinyGrid, Mode: mode, HonorGuards: true},
			})
		}
	}
	return out
}

// randomCases pushes generated regexes through the full pass pipeline on
// tiny blocks, so windows, guards, merged barrier groups, loops and overlap
// growth all occur.
func randomCases(t *testing.T) []pinnedCase {
	rng := rand.New(rand.NewSource(20260808))
	alphabet := []byte("abcd")
	var out []pinnedCase
	for trial := 0; trial < 120; trial++ {
		ast := rx.Generate(rng, rx.GenOptions{MaxDepth: 3, Alphabet: alphabet, MaxRepeat: 3})
		p, err := lower.Group([]lower.Regex{{Name: "re", AST: ast}}, lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		input := make([]byte, 40+rng.Intn(160))
		for i := range input {
			input[i] = alphabet[rng.Intn(len(alphabet))]
		}
		out = append(out, pinnedCase{
			label: fmt.Sprintf("random-%03d/%s", trial, ast),
			prog:  optimize(p, true),
			input: input,
			cfg:   Config{Grid: tinyGrid, Mode: ModeDTM, HonorGuards: true},
		})
	}
	return out
}

// gridCases runs one pattern on realistic geometry: large windows,
// shared-input amortization, full output writes.
func gridCases() []pinnedCase {
	input := make([]byte, 8192)
	for i := range input {
		input[i] = "quack and quark "[i%16]
	}
	grids := []gpusim.Grid{
		tinyGrid,
		{CTAs: 4, Threads: 64, UnitBits: 32, UnitsPerThread: 1},
		gpusim.DefaultGrid(),
	}
	var out []pinnedCase
	for _, g := range grids {
		out = append(out, pinnedCase{
			label: fmt.Sprintf("grid-%dx%d", g.CTAs, g.Threads),
			prog:  optimize(lower.MustSingle("re", "qu[a-z]{2,6}k"), false),
			input: input,
			cfg:   Config{Grid: g, Mode: ModeDTM, SharedInputCTAs: 4, FullOutputWrites: true},
		})
	}
	return out
}

// checkPinned runs each case against the interpreter and its golden line.
func checkPinned(t *testing.T, cases []pinnedCase) {
	t.Helper()
	data, err := os.ReadFile(ctaStatsGolden)
	if err != nil {
		t.Fatalf("reading golden (run `go test -run Golden -update-golden` to create): %v", err)
	}
	golden := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		label, _, _ := strings.Cut(line, "\t")
		golden[label] = line
	}
	for _, c := range cases {
		if got, want := c.run(t), golden[c.label]; got != want {
			t.Errorf("%s: modeled cost diverges from %s:\n got  %s\n want %s", c.label, ctaStatsGolden, got, want)
		}
	}
}

func TestSuperblocksMatchReference(t *testing.T) { checkPinned(t, handpickedCases()) }

func TestSuperblocksRandomMatchReference(t *testing.T) { checkPinned(t, randomCases(t)) }

func TestSuperblocksAcrossGridSizesMatchReference(t *testing.T) { checkPinned(t, gridCases()) }

// TestCTAStatsGolden pins the whole file, so a case added, dropped or
// reordered shows up as well as a changed charge. Modeled cost is part of
// the executor's contract: rewrite the golden (-update-golden) only for a
// deliberate cost-model change.
func TestCTAStatsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, set := range [][]pinnedCase{handpickedCases(), randomCases(t), gridCases()} {
		for _, c := range set {
			buf.WriteString(c.run(t))
			buf.WriteByte('\n')
		}
	}
	if *updateGolden {
		if err := os.WriteFile(ctaStatsGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ctaStatsGolden)
	if err != nil {
		t.Fatalf("reading golden (run `go test -run Golden -update-golden` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("CTAStats diverge from %s; per-case diffs are reported by the TestSuperblocks* tests", ctaStatsGolden)
	}
}

// TestFusedWordKernels checks the two fused µop kernels word for word
// against the unfused composition they replace, including dst aliasing an
// operand (the window register file hands out aliased buffers when a
// statement overwrites its own source).
func TestFusedWordKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	binary := map[sbOpCode]func(dst, x, y []uint64){
		sbAnd: andWords, sbOr: orWords, sbXor: xorWords, sbAndNot: andNotWords,
	}
	random := func(n int) []uint64 {
		w := make([]uint64, n)
		for i := range w {
			w[i] = rng.Uint64()
		}
		return w
	}
	clone, equal := slices.Clone[[]uint64], slices.Equal[[]uint64]
	// Lengths straddle the sbTileWords register tile.
	for _, n := range []int{0, 1, 7, 8, 9, 33} {
		a, b, c := random(n), random(n), random(n)
		shifted, want := make([]uint64, n), make([]uint64, n)

		shiftOps := []struct {
			code  sbOpCode
			apply func(dst, shifted, c []uint64)
		}{
			{sbShiftAnd, andWords},
			{sbShiftOr, orWords},
			{sbShiftXor, xorWords},
			{sbShiftAndNot, andNotWords},
			{sbShiftUnderAndNot, func(dst, s, c []uint64) { andNotWords(dst, c, s) }},
		}
		for _, op := range shiftOps {
			for k := -63; k <= 63; k++ {
				if k == 0 {
					continue
				}
				bitstream.ShiftWords(shifted, a, k)
				op.apply(want, shifted, c)
				fresh := make([]uint64, n)
				fusedShiftBin(op.code, fresh, a, c, k)
				onA, onC := clone(a), clone(c)
				fusedShiftBin(op.code, onA, onA, c, k)
				fusedShiftBin(op.code, onC, a, onC, k)
				if !equal(fresh, want) || !equal(onA, want) || !equal(onC, want) {
					t.Fatalf("fusedShiftBin code=%d k=%d n=%d diverges (fresh=%v dst==a %v dst==c %v)",
						op.code, k, n, equal(fresh, want), equal(onA, want), equal(onC, want))
				}
			}
		}

		inner := make([]uint64, n)
		for ic, innerFn := range binary {
			for oc, outerFn := range binary {
				for _, swap := range []bool{false, true} {
					innerFn(inner, a, b)
					if swap && oc == sbAndNot {
						outerFn(want, c, inner)
					} else {
						// swap only has meaning for the one non-commutative
						// outer op; the compiler never sets it otherwise.
						outerFn(want, inner, c)
					}
					op := &sbOp{code: sbFuse2, inner: ic, outer: oc, swap: swap}
					fresh := make([]uint64, n)
					fused2(op, fresh, a, b, c)
					onA, onC := clone(a), clone(c)
					fused2(op, onA, onA, b, c)
					fused2(op, onC, a, b, onC)
					if !equal(fresh, want) || !equal(onA, want) || !equal(onC, want) {
						t.Fatalf("fused2 inner=%d outer=%d swap=%v n=%d diverges", ic, oc, swap, n)
					}
				}
			}
		}
	}
}
