package kernel

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/bgerr"
	"bitgen/internal/bitstream"
	"bitgen/internal/charclass"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/passes"
	"bitgen/internal/rx"
	"bitgen/internal/transpose"
	"bitgen/internal/workload"
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

// gridCases runs one pattern on realistic geometry: large windows and
// shared-input amortization.
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
			cfg:   Config{Grid: g, Mode: ModeDTM, SharedInputCTAs: 4},
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
	for _, set := range [][]pinnedCase{handpickedCases(), randomCases(t), gridCases(), sparseCases(t)} {
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

// fusedPairCodes are the µops fused2 pairs: inner and outer each one of them,
// nine pairs.
var fusedPairCodes = []sbOpCode{sbAnd, sbOr, sbAndNot}

// pairName names the fused pair outer(inner(a, b), c) "inner-outer".
func pairName(inner, outer sbOpCode) string {
	name := map[sbOpCode]string{sbAnd: "and", sbOr: "or", sbXor: "xor", sbAndNot: "andnot"}
	return name[inner] + "-" + name[outer]
}

// TestFusedWordKernels checks the two fused µop kernels word for word
// against the unfused composition they replace, including dst aliasing an
// operand (the window register file hands out aliased buffers when a
// statement overwrites its own source), and that the OR-reduction they return
// is zero exactly when they stored all zeros (an all-zero operand forces that
// for the absorbing ops). The shift kernel is also run over every run of words
// with its carry-in, as regFile.bin runs it over a run of live tiles; fused2
// runs the nine pairs it has a loop for, up to a default-grid window.
func TestFusedWordKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	binary := map[sbOpCode]func(dst, x, y []uint64){
		sbAnd: func(dst, x, y []uint64) { andWords(dst, x, y) }, sbOr: orWords,
		sbAndNot: func(dst, x, y []uint64) { andNotWords(dst, x, y) },
	}
	random := func(n int) []uint64 {
		w := make([]uint64, n)
		for i := range w {
			w[i] = rng.Uint64()
		}
		return w
	}
	clone, equal := slices.Clone[[]uint64], slices.Equal[[]uint64]
	for _, n := range []int{0, 1, 7, 8, 9, 33} {
		for _, zeroC := range []bool{false, true} {
			a, c := random(n), random(n)
			if zeroC {
				clear(c)
			}
			shifted, want := make([]uint64, n), make([]uint64, n)

			shiftOps := []struct {
				code  sbOpCode
				apply func(dst, shifted, c []uint64)
			}{
				{sbShiftAnd, binary[sbAnd]},
				{sbShiftOr, orWords},
				{sbShiftAndNot, binary[sbAndNot]},
			}
			for _, op := range shiftOps {
				for k := -63; k <= 63; k++ {
					if k == 0 {
						continue
					}
					bitstream.ShiftWords(shifted, a, k)
					op.apply(want, shifted, c)
					fresh := make([]uint64, n)
					if or := fusedShiftBin(op.code, fresh, a, c, k, 0); (or != 0) != anyWords(want) {
						t.Fatalf("fusedShiftBin code=%d k=%d n=%d returned OR %#x for result any=%v", op.code, k, n, or, anyWords(want))
					}
					onA, onC := clone(a), clone(c)
					fusedShiftBin(op.code, onA, onA, c, k, 0)
					fusedShiftBin(op.code, onC, a, onC, k, 0)
					if !equal(fresh, want) || !equal(onA, want) || !equal(onC, want) {
						t.Fatalf("fusedShiftBin code=%d k=%d n=%d diverges (fresh=%v dst==a %v dst==c %v)",
							op.code, k, n, equal(fresh, want), equal(onA, want), equal(onC, want))
					}
				}
			}

			// Tile runs: the kernel over words [lo, hi) with a's word across the
			// edge carried in equals that stretch of the whole-window pass, for
			// every run edge — random words, so the neighbour word has set bits
			// to pull — fresh, and with dst the run of a or of c itself.
			for _, op := range shiftOps {
				for _, k := range []int{1, 7, 63, -1, -7, -63} {
					whole := make([]uint64, n)
					fusedShiftBin(op.code, whole, a, c, k, 0)
					for lo := 0; lo < n; lo++ {
						for hi := lo + 1; hi <= n; hi++ {
							var in uint64
							if k > 0 && lo > 0 {
								in = a[lo-1]
							} else if k < 0 && hi < n {
								in = a[hi]
							}
							fresh, onA, onC := make([]uint64, n), clone(a), clone(c)
							or := fusedShiftBin(op.code, fresh[lo:hi], a[lo:hi], c[lo:hi], k, in)
							fusedShiftBin(op.code, onA[lo:hi], onA[lo:hi], c[lo:hi], k, in)
							fusedShiftBin(op.code, onC[lo:hi], a[lo:hi], onC[lo:hi], k, in)
							want := whole[lo:hi]
							if !equal(fresh[lo:hi], want) || !equal(onA[lo:hi], want) || !equal(onC[lo:hi], want) || (or != 0) != anyWords(want) {
								t.Fatalf("fusedShiftBin code=%d k=%d over words [%d, %d) of %d diverges from the whole-window pass (fresh=%v dst==a %v dst==c %v, OR %#x)",
									op.code, k, lo, hi, n, equal(fresh[lo:hi], want), equal(onA[lo:hi], want), equal(onC[lo:hi], want), or)
							}
						}
					}
				}
			}

		}
	}

	for _, n := range []int{0, 1, 7, 8, 9, 258} {
		for _, zeroC := range []bool{false, true} {
			a, b, c := random(n), random(n), random(n)
			if zeroC {
				clear(c)
			}
			inner, want := make([]uint64, n), make([]uint64, n)
			for _, ic := range fusedPairCodes {
				for _, oc := range fusedPairCodes {
					binary[ic](inner, a, b)
					binary[oc](want, inner, c)
					fresh := make([]uint64, n)
					if or := fused2(ic, oc, fresh, a, b, c); (or != 0) != anyWords(want) {
						t.Fatalf("fused2 inner=%d outer=%d n=%d returned OR %#x for result any=%v", ic, oc, n, or, anyWords(want))
					}
					onA, onB, onC := clone(a), clone(b), clone(c)
					fused2(ic, oc, onA, onA, b, c)
					fused2(ic, oc, onB, a, onB, c)
					fused2(ic, oc, onC, a, b, onC)
					if !equal(fresh, want) || !equal(onA, want) || !equal(onB, want) || !equal(onC, want) {
						t.Fatalf("fused2 inner=%d outer=%d n=%d diverges (fresh=%v dst==a %v dst==b %v dst==c %v)",
							ic, oc, n, equal(fresh, want), equal(onA, want), equal(onB, want), equal(onC, want))
					}
				}
			}
		}
	}
}

// BenchmarkFused2 prices each of the nine fused pairs on one default-grid
// window (258 words) in ns per word, beside the same pair run as two plain
// binWords passes through a window buffer.
func BenchmarkFused2(b *testing.B) {
	const ww = 258
	x, y, z, tmp, dst := make([]uint64, ww), make([]uint64, ww), make([]uint64, ww), make([]uint64, ww), make([]uint64, ww)
	for i := range x {
		x[i], y[i], z[i] = uint64(i)*0x9e3779b97f4a7c15, ^uint64(i)*0xbf58476d1ce4e5b9, uint64(i)<<7^0x94d049bb133111eb
	}
	for _, ic := range fusedPairCodes {
		for _, oc := range fusedPairCodes {
			run := func(way string, pair func()) {
				b.Run(pairName(ic, oc)+"/"+way, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pair()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/ww, "ns/word")
				})
			}
			run("fused", func() { fused2(ic, oc, dst, x, y, z) })
			run("two-pass", func() {
				binWords(ic, tmp, x, y, 0, 0)
				binWords(oc, dst, tmp, z, 0, 0)
			})
		}
	}
}

// shareClasses binds the classes that two or more parts expand, as the engine
// shares them, as basis's extended streams with their presence rows, and
// returns their slots.
func shareClasses(parts [][]lower.Regex, basis *transpose.Basis) map[charclass.Class]int {
	counts := make(map[charclass.Class]int)
	var order []charclass.Class
	for _, part := range parts {
		for _, cl := range lower.Classes(part) {
			if counts[cl]++; counts[cl] == 1 {
				order = append(order, cl)
			}
		}
	}
	slots := make(map[charclass.Class]int)
	for _, cl := range order {
		if counts[cl] >= 2 && len(slots) < 256 {
			slots[cl] = len(basis.Ext)
			basis.Ext = append(basis.Ext, charclass.MatchStream(cl, basis))
		}
	}
	presenceRows(basis)
	return slots
}

// generatorApps returns the four stream_light patterns over a log of at least
// 1 800 bytes, the ten generators at scale 0.05 and the 500-signature megaset,
// each over inputBytes of its own input.
func generatorApps(t *testing.T, inputBytes int) []*workload.App {
	t.Helper()
	line := "the quick brown fox quacks at 0123 lazy dogs\n"
	light := &workload.App{Name: "stream_light", Input: []byte(strings.Repeat(line, max(40, inputBytes/len(line))))}
	for _, pat := range []string{"fox|dog", "qu[a-z]{2,6}k", "l.zy", `0\d{3}`} {
		light.Regexes = append(light.Regexes, lower.Regex{Name: pat, AST: rx.MustParse(pat)})
	}
	apps := []*workload.App{light}
	for _, name := range workload.Names() {
		app, err := workload.Load(name, workload.Options{RegexScale: 0.05, InputBytes: inputBytes, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	mega, err := workload.Megaset(500, 1, inputBytes)
	if err != nil {
		t.Fatal(err)
	}
	return append(apps, mega)
}

// groupPrograms splits app's patterns into groups as wide as grid makes them,
// adds the classes groups share to basis as extended streams and lowers each
// group through the engine's default passes. It returns the programs and the
// number of shared classes.
func groupPrograms(t *testing.T, app *workload.App, basis *transpose.Basis, grid gpusim.Grid) ([]*ir.Program, int) {
	t.Helper()
	var parts [][]lower.Regex
	for lo, per := 0, (len(app.Regexes)+grid.CTAs-1)/grid.CTAs; lo < len(app.Regexes); lo += per {
		parts = append(parts, app.Regexes[lo:min(lo+per, len(app.Regexes))])
	}
	shared := shareClasses(parts, basis)
	progs := make([]*ir.Program, len(parts))
	for i, part := range parts {
		p, err := lower.Group(part, lower.Options{SharedCC: shared, SharedExtBits: len(shared)})
		if err != nil {
			t.Fatal(err)
		}
		passes.Rebalance(p, passes.RebalanceOptions{})
		passes.MergeBarriers(p, passes.MergeOptions{MergeSize: 8})
		passes.InsertGuards(p, passes.ZBSOptions{Interval: 8})
		progs[i] = p
	}
	return progs, len(shared)
}

// presenceRows binds basis's presence rows as the engine writes them, from
// its extended streams' words.
func presenceRows(basis *transpose.Basis) {
	w := (len(basis.Ext) + 63) / 64
	lines := (bitstream.WordsFor(basis.N) + transpose.LineWords - 1) / transpose.LineWords
	basis.Pres, basis.PresW = make([]uint64, lines*w), w
	for j, s := range basis.Ext {
		for i, x := range s.Words() {
			if x != 0 {
				basis.Pres[i/transpose.LineWords*w+j/64] |= 1 << (j % 64)
			}
		}
	}
}

// TestEveryFusedPairHasALoop compiles what the engine compiles — the ten
// generators at scale 0.05, the four stream_light patterns and the
// 500-signature megaset, in groups as wide as the default grid makes them,
// reading the classes groups share as extended basis streams, through the
// engine's default passes — and fails on any sbFuse2 µop whose pair fused2
// has no loop for: it would fall through fused2's switch and read as zero. It
// logs the class prologues (execPrologue's nodes), their pairs and how many
// have a mask, and fails if the Yara groups compile none with a mask or a
// prologue that loads a raw plane has one.
func TestEveryFusedPairHasALoop(t *testing.T) {
	hasLoop := make(map[string]bool)
	for _, ic := range fusedPairCodes {
		for _, oc := range fusedPairCodes {
			hasLoop[pairName(ic, oc)] = true
		}
	}
	grid := gpusim.DefaultGrid()
	for _, app := range generatorApps(t, 1<<10) {
		basis := transpose.Transpose(app.Input)
		progs, shared := groupPrograms(t, app, basis, grid)
		fused := make(map[string]int)
		var prologues, pairs, most, masked int
		for _, p := range progs {
			s, err := newTestSession(p, Config{Grid: grid, Mode: ModeDTM, HonorGuards: true}, &arena.Arena{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Run(context.Background(), basis); err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			eachProgram(s.pl, func(sp *sbProgram) {
				for _, op := range sp.ops {
					if pair := pairName(op.inner, op.outer); op.code == sbFuse2 {
						if !hasLoop[pair] {
							t.Errorf("%s: S%d fuses the pair %s (codes %d, %d), which fused2 has no loop for", app.Name, op.dst, pair, op.inner, op.outer)
						}
						fused[pair]++
					}
				}
				for _, nd := range sp.nodes {
					if nd.pairs == 0 {
						continue
					}
					prologues, pairs, most = prologues+1, pairs+int(nd.pairs), max(most, int(nd.pairs))
					if nd.mask != 0 {
						masked++
					}
					raw := slices.ContainsFunc(sp.ops[nd.lo:nd.lo+nd.pairs], func(op sbOp) bool { return op.k < transpose.NumBasis })
					if raw && nd.mask != 0 {
						t.Errorf("%s: a prologue loading a raw plane has a mask", app.Name)
					}
				}
			})
			s.Close()
		}
		t.Logf("%s: fused pairs: %v; %d shared classes, %d class-prologue pairs in %d nodes (at most %d a node, %d with a mask)",
			app.Name, fused, shared, pairs, prologues, most, masked)
		if app.Name == "Yara" && masked == 0 {
			t.Errorf("Yara: no group compiles a class prologue node with a mask")
		}
	}
}

// TestDeferredClassGuardsAgainstPresence measures, without changing the
// executor, what the presence rows could answer of the guards on deferred
// shifts of class views (S' = S << k; if (!S') skip): the stream_sigs set's
// groups, compiled as the engine does, over one 256 KiB chunk of its input, run
// window by window through a copy of execSBProg's node loop that counts, at
// every guard node, those whose condition is such a shift and, of them, those
// an OR of the rows over the whole lines of the source range the shift reads
// would answer "present". One 4 MiB stream_sigs op is 16 such chunks.
func TestDeferredClassGuardsAgainstPresence(t *testing.T) {
	app, err := workload.Load("Yara", workload.Options{RegexScale: 0.05, InputBytes: 128 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	basis := transpose.Transpose(bytes.Repeat(app.Input, 2))
	parts := make([][]lower.Regex, len(app.Regexes)) // the default grid's 256 CTAs: one signature a group
	for i := range app.Regexes {
		parts[i] = app.Regexes[i : i+1]
	}
	shared := shareClasses(parts, basis)
	set := make([]uint64, basis.PresW)
	var evals, deferred, present int
	for _, part := range parts {
		p, err := lower.Group(part, lower.Options{SharedCC: shared, SharedExtBits: len(shared)})
		if err != nil {
			t.Fatal(err)
		}
		passes.Rebalance(p, passes.RebalanceOptions{})
		passes.MergeBarriers(p, passes.MergeOptions{MergeSize: 8})
		passes.InsertGuards(p, passes.ZBSOptions{Interval: 8})
		cfg := Config{Grid: gpusim.DefaultGrid(), Mode: ModeDTM, HonorGuards: true}
		s, err := newTestSession(p, cfg, &arena.Arena{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Run(context.Background(), basis); err != nil { // compiles every segment
			t.Fatal(err)
		}
		ex, r := s.ex, s.ex.regs
		ex.reset(context.Background(), s.compiled, basis, s.cfg.withDefaults(basis.N))
		for _, node := range s.pl.nodes {
			seg, ok := node.(*fusedSeg)
			if !ok || seg.an.HasDynamic || seg.an.HasCarry {
				t.Fatalf("%s: a plan node other than a static fused segment", part[0].Name)
			}
			ex.curAnalysis = seg.an
			dl, dr := align64(seg.an.StaticMaxAdvance), align64(-seg.an.StaticMinOffset)
			for cs := 0; cs < ex.n; cs += cfg.Grid.BlockBits() {
				ce := min(cs+cfg.Grid.BlockBits(), ex.n)
				ex.openWindow(cs, ce, dl, dr)
				nodes := seg.sprog.nodes
				for i := 0; i < len(nodes); i++ {
					switch nd := &nodes[i]; nd.kind {
					case sbRunNode:
						if nd.pairs > 0 {
							i = ex.execPrologue(seg.sprog, i, true)
						} else if err := ex.execSBRun(seg.sprog, nd.lo, nd.hi, true); err != nil {
							t.Fatal(err)
						}
					case sbGuardNode:
						ex.bind(nd.cond, true)
						evals++
						v := nd.cond
						j := slices.IndexFunc(basis.Ext, func(s *bitstream.Stream) bool {
							return r.state[v] == regDeferred && r.live[v] != 0 && &r.val[v][0] == &s.Words()[ex.ws/64]
						})
						any := r.any(v)
						if j >= 0 {
							deferred++
							k := int(r.shiftK[v])
							from, to := ex.ws/64+(max(-k, 0)+63)/64, ex.ws/64+min(r.endBit-k, r.ww*64)/64
							basis.Present(set, from, max(to-from, 0))
							if set[j/64]>>(j%64)&1 != 0 {
								present++
								if !any {
									t.Fatalf("%s: the rows call class %d present where its shift reads no bit", part[0].Name, j)
								}
							}
						}
						if !any {
							i = ex.takeGuard(seg.sprog, i, true)
						}
					default:
						t.Fatalf("%s: node kind %d in a straight-line group", part[0].Name, nd.kind)
					}
				}
				ex.commitWindow(seg.liveOut, cs, ce)
			}
		}
		s.Close()
	}
	t.Logf("%d groups, one 256 KiB chunk: %d guard-node evaluations, %d on deferred shifts of class views, %d of them answered present by the rows (×16 for a 4 MiB op: %d, %d, %d)",
		len(parts), evals, deferred, present, 16*evals, 16*deferred, 16*present)
	if deferred == 0 {
		t.Fatal("no guard on a deferred shift of a class view was evaluated")
	}
}

// prologueGrid has 32-word blocks: four presence lines each.
var prologueGrid = gpusim.Grid{CTAs: 4, Threads: 64, UnitBits: 32, UnitsPerThread: 1}

// prologueProgram is a group's class prologue in miniature: n loads S_k =
// b<8+k>, each followed by a guard on it that skips everything after it, then
// a body: S_{n-1} advanced by one bit and ANDed with every other load — or,
// when bare, the advance alone, so that the loads before the last are read by
// their guards only. The advance gives every window but the first a one-word
// left margin, so a window starts on a line's last word. On prologueBasis the
// guards are sound: what a taken one skips is zero in its window.
func prologueProgram(n int, bare bool) *ir.Program {
	b := ir.NewBuilder()
	loads := make([]ir.VarID, n)
	for k := range loads {
		loads[k] = b.Emit(ir.Expr{Op: ir.OpBasis, K: int32(transpose.NumBasis + k)})
	}
	out := b.Advance(loads[n-1], 1)
	if !bare {
		for _, s := range loads[:n-1] {
			out = b.And(out, s)
		}
	}
	b.Output("re", out)
	p := b.Program()
	p.ExtBits = n
	var stmts []ir.Stmt
	for i, s := range p.Stmts {
		if stmts = append(stmts, s); i < n {
			stmts = append(stmts, &ir.Guard{Cond: loads[i]})
		}
	}
	for g, s := range stmts {
		if guard, ok := s.(*ir.Guard); ok {
			guard.Skip = len(stmts) - g - 1
		}
	}
	p.Stmts = stmts
	return p
}

// prologueWindows is the number of prologueGrid blocks prologueBasis spans.
func prologueWindows(n int) int { return 2*n + 2 }

// prologueBasis spans prologueWindows(n) blocks of prologueGrid but 100 bits.
// Its class k is set everywhere except in block k and the margin word before
// it — absent from window k, where guard k fires unless an earlier one did —
// and in block n+k, which leaves it the margin word of window n+k only: absent
// from every whole line there but set in an edge word, a guard the pair loop
// must not take. The last class is also clear in the first n blocks, so the
// advance a taken guard skips is zero. From window 2n on every class is in
// every line. Presence rows are bound when rows is set.
func prologueBasis(n int, rows bool) *transpose.Basis {
	block := prologueGrid.BlockBits()
	bits := prologueWindows(n)*block - 100
	basis := transpose.Transpose(make([]byte, bits))
	for k := 0; k < n; k++ {
		s := bitstream.NewOnes(bits)
		clearBits := func(lo, hi int) {
			for i := max(lo, 0); i < hi; i++ {
				s.Clear(i)
			}
		}
		clearBits(k*block-64, (k+1)*block)
		clearBits((n+k)*block, (n+k+1)*block)
		if k == n-1 {
			clearBits(0, n*block)
		}
		basis.Ext = append(basis.Ext, s)
	}
	if rows {
		presenceRows(basis)
	}
	return basis
}

// prologueCoverage counts the windows TestPrologueChargesWhatItsPairsDid
// reached of each kind, so that a basis that stops making them fails.
type prologueCoverage struct {
	taken, edge, set, unread int
}

// TestPrologueChargesWhatItsPairsDid runs hand-built prologues of n pairs on
// prologueBasis — windows where a guard fires, where a class is absent from
// every whole line but set in an edge word, and where every class is present
// — with and without presence rows, guards honored or not, the prologue
// ending the program or not. The compiler must mark the whole prologue on its
// first load and give it the mask of its classes. A run must produce the
// interpreter's outputs and charge CTAStats struct-equal to the same program
// run pair by pair, as two nodes a pair, and so must every window, in the real
// pass and in the probe pass (which charges nothing). Window by window,
// execPrologue must resume where the first guard the words say is taken
// would, tag the output it skips known zero and nothing else, bind no load
// when every class is present or guards are off, and charge each pair it
// reached one DRAM load and one guard check — a load no µop reads included.
func TestPrologueChargesWhatItsPairsDid(t *testing.T) {
	var seen prologueCoverage
	for _, n := range []int{1, 4} {
		for _, bare := range []bool{false, true} {
			p := prologueProgram(n, bare)
			for _, rows := range []bool{true, false} {
				basis := prologueBasis(n, rows)
				for _, honor := range []bool{true, false} {
					label := fmt.Sprintf("n=%d bare=%v rows=%v guards=%v", n, bare, rows, honor)
					checkPrologue(t, label, p, basis, n, Config{Grid: prologueGrid, Mode: ModeDTM, HonorGuards: honor}, &seen)
				}
			}
		}
	}
	if seen.taken == 0 || seen.edge == 0 || seen.set == 0 || seen.unread == 0 {
		t.Fatalf("windows reached: %+v; want a taken guard, an edge-word class, every class present and a load no µop read", seen)
	}
	t.Logf("windows reached: %+v", seen)
}

func checkPrologue(t *testing.T, label string, p *ir.Program, basis *transpose.Basis, n int, cfg Config, seen *prologueCoverage) {
	t.Helper()
	want := interpRef(t, p, basis)["re"]
	// run runs p twice on one session under the mask audit — the first run
	// compiles — the second time pair by pair when asked.
	run := func(pairwise bool) (testSession, gpusim.CTAStats) {
		s, err := newTestSession(p, cfg, &arena.Arena{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		var audit maskAudit
		audit.attach(t, label, s)
		var stats gpusim.CTAStats
		for pass := 0; pass < 2; pass++ {
			if pass == 1 && pairwise {
				eachProgram(s.pl, func(sp *sbProgram) {
					for i := range sp.nodes {
						sp.nodes[i].pairs = 0
					}
				})
			}
			var outs []*bitstream.Stream
			if outs, stats, err = runStreams(s, basis); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !outs[0].Equal(want) {
				t.Fatalf("%s: output diverges from the interpreter:\n got  %s\n want %s", label, outs[0], want)
			}
		}
		return s, stats
	}
	s, batched := run(false)
	if _, pairwise := run(true); batched != pairwise {
		t.Fatalf("%s: the prologue node charges\n %+v\nits pairs as nodes charge\n %+v", label, batched, pairwise)
	}

	sp := s.pl.nodes[0].(*fusedSeg).sprog
	for i, nd := range sp.nodes {
		if wantPairs := int32(n); i > 0 && nd.pairs != 0 || i == 0 && nd.pairs != wantPairs {
			t.Fatalf("%s: node %d is marked with %d pairs; want the first node marked with %d, no other", label, i, nd.pairs, n)
		}
	}
	if sp.nodes[0].mask != 1 || !slices.Equal(sp.masks, []uint64{1<<n - 1}) {
		t.Fatalf("%s: the prologue's mask is %x, want its %d classes", label, sp.masks, n)
	}
	flat := *sp
	flat.nodes = slices.Clone(sp.nodes)
	flat.nodes[0].pairs = 0
	ex, block, out := s.ex, prologueGrid.BlockBits(), p.Outputs[0].Var
	loads := make([]ir.VarID, n)
	for k := range loads {
		loads[k] = sp.ops[k].dst
	}
	for w := 0; w < prologueWindows(n); w++ {
		cs, ce := w*block, min((w+1)*block, basis.N)
		for _, charge := range []bool{true, false} {
			// The whole window, marked and then pair by pair.
			var stats [2]gpusim.CTAStats
			var words [2][]uint64
			unread := false
			for i, prog := range []*sbProgram{sp, &flat} {
				ex.stats = gpusim.CTAStats{}
				if err := wholeWindow(ex, prog, cs, ce, 64, 0, !charge, charge); err != nil {
					t.Fatal(err)
				}
				stats[i], words[i] = ex.stats, slices.Clone(ex.committedWords(out, 0, ex.ww))
				unread = unread || i == 0 && !ex.regs.has(loads[0])
			}
			if stats[0] != stats[1] || !slices.Equal(words[0], words[1]) {
				t.Fatalf("%s: window %d (charge %v): the prologue node charges\n %+v\nits pairs as nodes\n %+v\n(output words equal: %v)",
					label, w, charge, stats[0], stats[1], slices.Equal(words[0], words[1]))
			}

			// The prologue alone, against what the window's words say.
			ex.stats = gpusim.CTAStats{}
			ex.openWindow(cs, ce, 64, 0)
			units, from := ex.windowUnits(), ex.ws/64
			taken, fast, edge := -1, true, false
			for k := 0; k < n; k++ {
				words, nonZero := basis.Ext[k].Words()[from:from+ex.ww], func(x uint64) bool { return x != 0 }
				lo := (from + transpose.LineWords - 1) / transpose.LineWords * transpose.LineWords
				hi := (from + ex.ww) / transpose.LineWords * transpose.LineWords
				set := slices.ContainsFunc(words, nonZero)
				inLines := basis.PresW > 0 && lo < hi && slices.ContainsFunc(words[lo-from:hi-from], nonZero)
				fast = fast && inLines
				if cfg.HonorGuards && taken < 0 {
					edge = edge || set && !inLines && basis.PresW > 0
					if !set {
						taken = k
					}
				}
			}
			fast = fast || !cfg.HonorGuards
			last := ex.execPrologue(sp, 0, charge)
			pairs, wantLast, want := int64(n), 2*n-1, gpusim.CTAStats{}
			if taken >= 0 {
				g := &sp.nodes[2*taken+1]
				pairs, wantLast = int64(taken+1), len(sp.nodes)-1
				if tagged := sp.zeroDsts[g.zlo:g.zhi]; !slices.Equal(tagged, []ir.VarID{out}) || !ex.regs.isZero(out) {
					t.Fatalf("%s: window %d: the guard on S%d fired and tags %v (S%d known zero: %v); want the output S%d alone",
						label, w, g.cond, tagged, out, ex.regs.isZero(out), out)
				}
				if charge {
					want.UnitOps, want.GuardSkips, want.SkippedStmts = int64(g.zeroCharge)*units, 1, int64(g.skipN)
				}
				seen.taken++
			}
			if charge {
				want.UnitOps += pairs * units
				want.DRAMReadBytes = pairs * int64(ex.ww) * 8
				want.SMemWriteBytes = pairs * int64(prologueGrid.Threads) * 4
				want.GuardChecks = pairs
			}
			for k, v := range loads {
				if bound := ex.regs.has(v) && !ex.regs.isZero(v); bound != (!fast && int64(k) < pairs) {
					t.Fatalf("%s: window %d (charge %v): load S%d bound %v; every class present: %v, pairs reached %d",
						label, w, charge, v, bound, fast, pairs)
				}
			}
			if last != wantLast || ex.stats != want {
				t.Fatalf("%s: window %d (charge %v): resumed after node %d, charged\n %+v\nwant node %d and\n %+v",
					label, w, charge, last, ex.stats, wantLast, want)
			}
			if edge && taken < 0 {
				seen.edge++
			}
			if fast && cfg.HonorGuards {
				seen.set++
			}
			if unread && fast && n > 1 && charge {
				seen.unread++
			}
		}
	}
}

// TestTakenGuardTagsWhatIsReadAfterIt guards D = G & C, G zero in most windows
// of the input, in four hand-built programs: D read after the guard's range,
// D an output, D defined a second time, D read nowhere. The taken guard must
// tag D known zero in the first three and not in the last, whose D reads as
// zero absent. Outputs must equal the interpreter's, and CTAStats must be
// struct-equal to the same program whose guard tags its whole range.
func TestTakenGuardTagsWhatIsReadAfterIt(t *testing.T) {
	cases := []struct {
		name   string
		tagged bool
		build  func(b *ir.Builder, sa, sc, g ir.VarID) ir.VarID // returns D
	}{
		{"read after", true, func(b *ir.Builder, sa, sc, g ir.VarID) ir.VarID {
			d := b.And(g, sc)
			b.Output("re", b.Or(d, sa))
			return d
		}},
		{"output", true, func(b *ir.Builder, sa, sc, g ir.VarID) ir.VarID {
			d := b.And(g, sc)
			b.Output("d", d)
			b.Output("re", sa)
			return d
		}},
		{"defined twice", true, func(b *ir.Builder, sa, sc, g ir.VarID) ir.VarID {
			d := b.NewVar()
			b.EmitTo(d, ir.Expr{Op: ir.OpCopy, X: sa})
			pre := b.Or(d, sc)
			b.EmitTo(d, ir.Expr{Op: ir.OpAnd, X: g, Y: sc})
			b.Output("re", pre)
			return d
		}},
		{"never read", false, func(b *ir.Builder, sa, sc, g ir.VarID) ir.VarID {
			d := b.And(g, sc)
			b.Output("re", b.Or(sa, sc))
			return d
		}},
	}
	input := []byte(strings.Repeat("abc cab ", 8) + strings.Repeat("xyz cc ", 30))
	basis := transpose.Transpose(input)
	for _, tc := range cases {
		b := ir.NewBuilder()
		sa, sb, sc := b.MatchClass(charclass.Single('a')), b.MatchClass(charclass.Single('b')), b.MatchClass(charclass.Single('c'))
		g := b.And(b.Advance(sa, 1), sb) // "ab" ends here
		d := tc.build(b, sa, sc, g)
		p := b.Program()
		// The guard skips D's (last) definition alone.
		at := slices.IndexFunc(p.Stmts, func(s ir.Stmt) bool {
			a, ok := s.(*ir.Assign)
			return ok && a.Dst == d && a.Expr == ir.Expr{Op: ir.OpAnd, X: g, Y: sc}
		})
		p.Stmts = slices.Insert(p.Stmts, at, ir.Stmt(&ir.Guard{Cond: g, Skip: 1}))

		want := interpRef(t, p, basis)
		var stats [2]gpusim.CTAStats
		for pass := range stats {
			s, err := newTestSession(p, Config{Grid: tinyGrid, Mode: ModeDTM, HonorGuards: true}, &arena.Arena{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, _, err := s.Run(context.Background(), basis); err != nil { // compiles
				t.Fatal(err)
			}
			sp := s.pl.nodes[0].(*fusedSeg).sprog
			gi := slices.IndexFunc(sp.nodes, func(nd sbNode) bool { return nd.kind == sbGuardNode })
			nd := &sp.nodes[gi]
			if tagged := slices.Contains(sp.zeroDsts[nd.zlo:nd.zhi], d); tagged != tc.tagged {
				t.Fatalf("%s: the guard tags %v; D is S%d, want it tagged: %v", tc.name, sp.zeroDsts[nd.zlo:nd.zhi], d, tc.tagged)
			}
			if pass == 1 {
				nd.zlo, nd.zhi = sp.nodes[gi+1].zlo, sp.nodes[gi+int(nd.skip)].zhi
			}
			outs, st, err := runStreams(s, basis)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range p.Outputs {
				if !outs[i].Equal(want[o.Name]) {
					t.Fatalf("%s (pass %d): output %s diverges from the interpreter:\n got  %s\n want %s", tc.name, pass, o.Name, outs[i], want[o.Name])
				}
			}
			stats[pass] = st
		}
		if stats[0] != stats[1] || stats[0].GuardSkips == 0 {
			t.Fatalf("%s: the filtered guard charges\n %+v\nthe guard tagging its whole range\n %+v\n(want equal, with skips)", tc.name, stats[0], stats[1])
		}
	}
}

// TestGuardInALoopTagsWhatItSkips: a guard in a while body keeps its whole
// list. D = G & Y, defined once, is read after the guard's range in the same
// iteration only — as a top-level guard's D would be dropped from the list —
// but the iteration that takes the guard must read it as zero, not as what an
// earlier iteration computed; the loop's last E, which reads it, is the output.
func TestGuardInALoopTagsWhatItSkips(t *testing.T) {
	b := ir.NewBuilder()
	x, y := b.Basis(7), b.Basis(6) // odd bytes; bytes with bit 1 set
	m, e := b.NewVar(), b.NewVar()
	b.EmitTo(m, ir.Expr{Op: ir.OpCopy, X: x})
	var g, d ir.VarID
	b.While(m, func() {
		b.EmitTo(m, ir.Expr{Op: ir.OpAnd, X: b.Advance(m, 1), Y: x})
		g = b.And(m, y)
		d = b.And(g, y)
		b.EmitTo(e, ir.Expr{Op: ir.OpOr, X: d, Y: m})
	})
	b.Output("re", b.Emit(ir.Expr{Op: ir.OpCopy, X: e}))
	p := b.Program()
	loop := p.Stmts[len(p.Stmts)-2].(*ir.While)
	at := slices.IndexFunc(loop.Body, func(s ir.Stmt) bool { a, ok := s.(*ir.Assign); return ok && a.Dst == d })
	loop.Body = slices.Insert(loop.Body, at, ir.Stmt(&ir.Guard{Cond: g, Skip: 1}))
	s := runHandBuilt(t, p, strings.Repeat("cca ac ccca a cac ", 12))
	tagged := false
	eachProgram(s.pl, func(sp *sbProgram) {
		for _, nd := range sp.nodes {
			if nd.kind == sbGuardNode && nd.cond == g {
				tagged = slices.Contains(sp.zeroDsts[nd.zlo:nd.zhi], d)
			}
		}
	})
	if !tagged {
		t.Fatalf("the guard on S%d in the loop body does not tag S%d", g, d)
	}
}

// TestFusedPairOverAKnownZeroOperand: M = (A | C) & Z fuses into one pair, and
// with Z known zero its bound is 0 — M is known zero in every window without
// fused2 running or M ever getting storage. N = (A | C) &^ Z, the pair whose
// right operand absorbs nothing, must still compute (runHandBuilt checks it
// against the interpreter).
func TestFusedPairOverAKnownZeroOperand(t *testing.T) {
	b := ir.NewBuilder()
	sa, sb, sc := b.MatchClass(charclass.Single('a')), b.MatchClass(charclass.Single('b')), b.MatchClass(charclass.Single('c'))
	z := b.And(sa, sb) // no byte is both
	m := b.And(b.Or(sa, sc), z)
	b.Output("z", z)
	b.Output("re", b.Or(m, sc))
	b.Output("n", b.AndNot(b.Or(sa, sc), z))
	s := runHandBuilt(t, b.Program(), strings.Repeat("abc cab bca ", 40))
	var pair *sbOp
	eachProgram(s.pl, func(p *sbProgram) {
		for i := range p.ops {
			if p.ops[i].code == sbFuse2 && p.ops[i].dst == m {
				pair = &p.ops[i]
			}
		}
	})
	if pair == nil || pair.inner != sbOr || pair.outer != sbAnd || pair.c != z {
		t.Fatalf("S%d = (a | c) & S%d did not compile to one And-over-Or pair: %+v", m, z, pair)
	}
	if r := s.ex.regs; !r.isZero(m) || r.own[m] != nil {
		t.Fatalf("S%d over the known-zero S%d: known zero %v, %d words of storage; want known zero and none", m, z, r.isZero(m), len(r.own[m]))
	}
}

// sparseCases are inputs on which whole class streams are empty, so most
// registers are all zero and the known-zero short-circuits carry the run: a
// two-letter input over an alphabet disjoint from the patterns', an all-NUL
// chunk, and a chunk whose only match straddles the start of the last window.
// 4099 bytes is three windows of the middle grid plus three bytes.
func sparseCases(t *testing.T) []pinnedCase {
	var group []lower.Regex
	for _, pat := range []string{"abcd", "ab+c", "a[bc]{2,4}d", "(ab|cd)+a", "d.{3}a", "b[ab]*c"} {
		group = append(group, lower.Regex{Name: pat, AST: rx.MustParse(pat)})
	}
	const n = 4099
	rng := rand.New(rand.NewSource(20260930))
	disjoint := make([]byte, n)
	for i := range disjoint {
		disjoint[i] = "xy"[rng.Intn(2)]
	}
	straddle := bytes.Repeat([]byte{'x'}, n)
	copy(straddle[4094:], "abcd")
	midGrid := gpusim.Grid{CTAs: 4, Threads: 64, UnitBits: 32, UnitsPerThread: 1}
	var out []pinnedCase
	for _, g := range []gpusim.Grid{tinyGrid, midGrid, gpusim.DefaultGrid()} {
		for _, in := range []struct {
			name  string
			bytes []byte
		}{{"disjoint", disjoint}, {"nul", make([]byte, n)}, {"straddle", straddle}} {
			// Base and DTM- cut the program into several fused segments, so
			// all-zero values also cross segment boundaries through globals.
			for _, mode := range []Mode{ModeDTM, ModeDTMStatic, ModeBase} {
				p, err := lower.Group(group, lower.Options{})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, pinnedCase{
					label: fmt.Sprintf("sparse-%s/%s/%dx%d", in.name, mode, g.CTAs, g.Threads),
					prog:  optimize(p, true),
					input: in.bytes,
					cfg:   Config{Grid: g, Mode: mode, HonorGuards: true},
				})
			}
		}
	}
	return out
}

func TestSuperblocksOnSparseInputsMatchReference(t *testing.T) { checkPinned(t, sparseCases(t)) }

// eachProgram visits every compiled superblock program of a plan, nested
// bodies included.
func eachProgram(pl *plan, visit func(*sbProgram)) {
	var nested func(p *sbProgram)
	nested = func(p *sbProgram) {
		visit(p)
		for i := range p.nodes {
			if p.nodes[i].body != nil {
				nested(p.nodes[i].body)
			}
		}
	}
	for _, node := range pl.nodes {
		switch x := node.(type) {
		case *fusedSeg:
			if x.sprog != nil {
				nested(x.sprog)
			}
		case *ctlSeg:
			eachProgram(x.body, visit)
		}
	}
}

// shiftOps indexes the standalone shift µops a session compiled by their
// destination.
func shiftOps(s testSession) map[ir.VarID]*sbOp {
	ops := make(map[ir.VarID]*sbOp)
	eachProgram(s.pl, func(p *sbProgram) {
		for i := range p.ops {
			if p.ops[i].code == sbShift {
				ops[p.ops[i].dst] = &p.ops[i]
			}
		}
	})
	return ops
}

// runHandBuilt executes p over input in DTM on tiny blocks, asserts every
// output equals the interpreter's and returns the session, its last window's
// registers still in place.
func runHandBuilt(t *testing.T, p *ir.Program, input string) testSession {
	t.Helper()
	basis := transpose.Transpose([]byte(input))
	s, err := newTestSession(p, Config{Grid: tinyGrid, Mode: ModeDTM, HonorGuards: true}, &arena.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	outs, _, err := runStreams(s, basis)
	if err != nil {
		t.Fatal(err)
	}
	want := interpRef(t, p, basis)
	for i, o := range p.Outputs {
		if !outs[i].Equal(want[o.Name]) {
			t.Fatalf("output %s diverges from the interpreter:\n got  %s\n want %s", o.Name, outs[i], want[o.Name])
		}
	}
	return s
}

// TestDeferredShiftBehindDeadChainIsNeverComputed is the guard-cut batch in
// miniature: T = S << 7; if (!T) skip 2; M = Z & T; M2 = M & B with Z all
// zero. The guard answers from S's words, the AND is absorbed by Z before T is
// read, and the bitwise pair behind the cut is not fused into a µop that would
// read all three operands first — so the window ends with T still deferred.
func TestDeferredShiftBehindDeadChainIsNeverComputed(t *testing.T) {
	b := ir.NewBuilder()
	sa, sb := b.MatchClass(charclass.Single('a')), b.MatchClass(charclass.Single('b'))
	z := b.And(sa, sb) // no byte is both
	tt := b.Advance(sa, 7)
	m := b.And(z, tt)
	m2 := b.And(m, sb)
	b.Output("re", b.Or(m2, sa))
	p := b.Program()
	// Guard the chain on the shift's own result, as InsertGuards does.
	at := slices.IndexFunc(p.Stmts, func(s ir.Stmt) bool { a, ok := s.(*ir.Assign); return ok && a.Dst == m })
	p.Stmts = slices.Insert(p.Stmts, at, ir.Stmt(&ir.Guard{Cond: tt, Skip: 2}))

	s := runHandBuilt(t, p, strings.Repeat("a man, a plan, a canal ", 20))
	if op := shiftOps(s)[tt]; op == nil || !op.lazy {
		t.Fatalf("S%d = S%d << 7 did not compile to a deferrable standalone shift", tt, sa)
	}
	r := s.ex.regs
	if !r.has(tt) || r.state[tt] != regDeferred {
		t.Fatalf("S%d ended the window in state %d; want it deferred, never computed", tt, r.state[tt])
	}
	if !r.isZero(m) || !r.isZero(m2) {
		t.Fatalf("the chain S%d, S%d behind zero & S%d is not tagged known zero", m, m2, tt)
	}
}

// TestDeferralKeepsSourceWords covers the shapes on which the proof behind
// deferral (markLazy) matters: the words a deferred shift yields are the ones
// its source held where the IR put the shift.
func TestDeferralKeepsSourceWords(t *testing.T) {
	t.Run("a shift in a while body stays eager", func(t *testing.T) {
		// A marker walks a run of b's behind each a. T is a shift of S, which
		// every iteration rewrites, behind a guard on S: an iteration may
		// rewrite S's register ahead of a reader that kept T, so a shift in a
		// loop body is never deferred.
		b := ir.NewBuilder()
		sa, sb := b.MatchClass(charclass.Single('a')), b.MatchClass(charclass.Single('b'))
		m, acc := b.NewVar(), b.NewVar()
		b.EmitTo(m, ir.Expr{Op: ir.OpCopy, X: sa})
		b.EmitTo(acc, ir.Expr{Op: ir.OpZero})
		var s, tt ir.VarID
		b.While(m, func() {
			s = b.Emit(ir.Expr{Op: ir.OpCopy, X: m})
			tt = b.Advance(s, 1)
			b.EmitTo(acc, ir.Expr{Op: ir.OpOr, X: acc, Y: tt})
			b.EmitTo(m, ir.Expr{Op: ir.OpAnd, X: b.Advance(m, 1), Y: sb})
		})
		after := b.Advance(acc, 2) // every definition of acc is behind it: deferrable
		b.Output("acc", acc)
		b.Output("after", b.Or(after, b.And(after, sb)))
		p := b.Program()
		body := &p.Stmts[slices.IndexFunc(p.Stmts, func(st ir.Stmt) bool { _, ok := st.(*ir.While); return ok })].(*ir.While).Body
		*body = slices.Insert(*body, 1, ir.Stmt(&ir.Guard{Cond: s, Skip: 1}))
		st := runHandBuilt(t, p, strings.Repeat("abbb ab xa abbbbbb ", 12))
		ops := shiftOps(st)
		if op := ops[tt]; op == nil || op.lazy {
			t.Fatalf("the loop body's shift S%d: op %+v, want standalone and eager", tt, op)
		}
		if op := ops[after]; op == nil || !op.lazy {
			t.Fatalf("the shift after the loop S%d: op %+v, want standalone and deferrable", after, op)
		}
	})
	t.Run("an XOR forces a deferred shift", func(t *testing.T) {
		// Each T has two readers, so it stays a standalone, deferrable shift;
		// the AND folds it, the XOR — which has no shift form — forces it,
		// the shift on its left or on its right.
		b := ir.NewBuilder()
		sa, sb := b.MatchClass(charclass.Single('a')), b.MatchClass(charclass.Single('b'))
		left, right := b.Advance(sa, 3), b.Advance(sb, 5)
		b.Output("and", b.Or(b.And(sb, left), b.And(right, sa)))
		b.Output("xor", b.Or(b.Xor(left, sb), b.Xor(sa, right)))
		b.Output("sunk", b.Xor(b.Advance(sa, 2), sb)) // a single reader: not sunk into it either
		s := runHandBuilt(t, b.Program(), strings.Repeat("abab bbab aaab ", 14))
		for _, v := range []ir.VarID{left, right} {
			if op := shiftOps(s)[v]; op == nil || !op.lazy {
				t.Fatalf("S%d: op %+v, want standalone and deferrable", v, op)
			}
		}
	})
	t.Run("a deferred shift that is a live-out is computed at commit", func(t *testing.T) {
		b := ir.NewBuilder()
		sa := b.MatchClass(charclass.Single('a'))
		adv, back := b.Advance(sa, 3), b.Emit(ir.Expr{Op: ir.OpShift, X: sa, K: -70})
		b.Output("adv", adv)
		b.Output("back", back)
		// 203 bytes: the last window ends inside a word, so the tail mask matters.
		s := runHandBuilt(t, b.Program(), strings.Repeat("banana ", 29))
		for _, v := range []ir.VarID{adv, back} {
			if op := shiftOps(s)[v]; op == nil || !op.lazy {
				t.Fatalf("output shift S%d: op %+v, want standalone and deferrable", v, op)
			}
			if s.ex.regs.state[v] != regOwned {
				t.Fatalf("output shift S%d was committed from state %d, want forced into owned storage", v, s.ex.regs.state[v])
			}
		}
	})
}

// TestSinkRespectsSourceRedefinition builds the one shape sinking must
// refuse: the shift's source is overwritten between the shift and the
// statement that consumes it. (Lowered regex programs are single-assignment
// outside loops, so the differential sets never contain it.) The shift must
// stay where the IR put it; a neighbouring shift whose source is left alone
// still sinks.
func TestSinkRespectsSourceRedefinition(t *testing.T) {
	b := ir.NewBuilder()
	x := b.MatchClass(charclass.Single('a'))
	y := b.MatchClass(charclass.Single('b'))
	src := b.Or(x, y)
	t1 := b.Advance(src, 1)                            // reads src before ...
	t2 := b.Advance(y, 2)                              // (sinkable: y is never rewritten)
	b.EmitTo(src, ir.Expr{Op: ir.OpAnd, X: src, Y: x}) // ... src is overwritten
	m := b.And(t1, y)
	b.Output("re", b.Or(m, b.And(t2, x)))
	p := b.Program()

	basis := transpose.Transpose([]byte(strings.Repeat("abba bab aab ", 40)))
	s, err := newTestSession(p, Config{Grid: tinyGrid, Mode: ModeDTM}, &arena.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	outs, _, err := runStreams(s, basis)
	if err != nil {
		t.Fatal(err)
	}
	if want := interpRef(t, p, basis)["re"]; !outs[0].Equal(want) {
		t.Fatalf("output diverges from the interpreter:\n got  %s\n want %s", outs[0], want)
	}
	var standalone, fused []ir.VarID
	sp := s.pl.nodes[0].(*fusedSeg).sprog
	for _, op := range sp.ops {
		switch op.code {
		case sbShift:
			standalone = append(standalone, op.dst)
		case sbShiftAnd:
			fused = append(fused, op.a)
		}
	}
	if !slices.Equal(standalone, []ir.VarID{t1}) || !slices.Equal(fused, []ir.VarID{y}) {
		t.Fatalf("standalone shifts %v, sunk shifts of %v; want [S%d] and that of [S%d]", standalone, fused, t1, y)
	}
}

// TestAndNotForcesAShiftOnItsRight covers c &^ (a << k), the one bitwise read
// of a shift that neither sinking nor deferral folds (no workload has one): the
// shift stays a standalone µop and the AND-NOT forces it. Three shapes, each
// against the interpreter: the shift's single reader in its run, the reader
// behind a guard cut, and a shift that is itself a live-out.
func TestAndNotForcesAShiftOnItsRight(t *testing.T) {
	for _, tc := range []struct {
		name         string
		guard, shown bool
	}{
		{"single reader in the run", false, false},
		{"reader behind a guard cut", true, false},
		{"live-out shift", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := ir.NewBuilder()
			sa, sb := b.MatchClass(charclass.Single('a')), b.MatchClass(charclass.Single('b'))
			tt := b.Advance(sa, 3)
			d := b.AndNot(sb, tt)
			b.Output("re", d)
			if tc.shown {
				b.Output("t", tt)
			}
			p := b.Program()
			if tc.guard {
				// A zero c makes the AND-NOT zero: the guard InsertGuards would place.
				at := slices.IndexFunc(p.Stmts, func(s ir.Stmt) bool { a, ok := s.(*ir.Assign); return ok && a.Dst == d })
				p.Stmts = slices.Insert(p.Stmts, at, ir.Stmt(&ir.Guard{Cond: sb, Skip: 1}))
			}
			s := runHandBuilt(t, p, strings.Repeat("ab bab aaab xbbab ", 14))
			if op := shiftOps(s)[tt]; op == nil || !op.lazy {
				t.Fatalf("S%d = S%d << 3: op %+v, want standalone and deferrable", tt, sa, op)
			}
			if st := s.ex.regs.state[tt]; st != regOwned {
				t.Fatalf("S%d ended the window in state %d, want forced into owned storage", tt, st)
			}
		})
	}
}

// TestCompileRefusesRightReachingLoop: a loop that looks back on its own
// condition, so markers flow left and every iteration reads one bit further
// into future data, is refused in every mode with a typed unsupported error.
// Run windowed, no right margin bounds what it reads: the saturation probe
// floods only the left one (DESIGN §6, Dynamic Δ for loops). Lowered
// programs have no such loop.
func TestCompileRefusesRightReachingLoop(t *testing.T) {
	for _, mode := range allModes {
		_, err := Compile(rightMarginProgram(), Config{Grid: tinyGrid, Mode: mode})
		var ue *bgerr.UnsupportedError
		if !errors.Is(err, bgerr.ErrUnsupported) || !errors.As(err, &ue) {
			t.Fatalf("%v: Compile returned %v; want a *bgerr.UnsupportedError", mode, err)
		}
	}
}

// rightMarginProgram marks the run of a's in front of each x, looking back on
// its loop's own condition.
func rightMarginProgram() *ir.Program {
	b := ir.NewBuilder()
	sx, sa := b.MatchClass(charclass.Single('x')), b.MatchClass(charclass.Single('a'))
	m, acc := b.NewVar(), b.NewVar()
	b.EmitTo(m, ir.Expr{Op: ir.OpCopy, X: sx})
	b.EmitTo(acc, ir.Expr{Op: ir.OpZero})
	b.While(m, func() {
		n := b.AndNot(b.And(b.Emit(ir.Expr{Op: ir.OpShift, X: m, K: -1}), sa), acc)
		b.EmitTo(acc, ir.Expr{Op: ir.OpOr, X: acc, Y: n})
		b.EmitTo(m, ir.Expr{Op: ir.OpCopy, X: n})
	})
	b.Output("run", acc)
	return b.Program()
}
