package kernel

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/bitstream"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/transpose"
	"bitgen/internal/workload"
)

// newRegFile returns a register file sized for numVars variables.
func newRegFile(numVars int) *regFile {
	r := &regFile{}
	r.grow(numVars)
	return r
}

func TestRegFileEpochInvalidation(t *testing.T) {
	r := newRegFile(4)
	r.beginWindow(2)
	b := r.buf(1)
	b[0], b[1] = 7, 9
	if !r.has(1) || r.get(1)[1] != 9 {
		t.Fatal("buffer not readable in same window")
	}
	r.beginWindow(2)
	if r.has(1) {
		t.Fatal("buffer survived window change")
	}
	if r.get(1) != nil {
		t.Fatal("get returned stale buffer")
	}
	// Re-acquiring gives a buffer (contents unspecified) without
	// reallocating when capacity suffices.
	b2 := r.buf(1)
	if len(b2) != 2 {
		t.Fatalf("len = %d", len(b2))
	}
}

func TestRegFileResize(t *testing.T) {
	r := newRegFile(2)
	r.beginWindow(1)
	r.buf(0)[0] = 5
	r.beginWindow(8)
	b := r.buf(0)
	if len(b) != 8 {
		t.Fatalf("len = %d", len(b))
	}
}

func TestRegFileZero(t *testing.T) {
	r := newRegFile(2)
	r.beginWindow(3)
	b := r.buf(0)
	b[0], b[2] = ^uint64(0), 42
	r.zero(0)
	for i, w := range r.get(0) {
		if w != 0 {
			t.Fatalf("word %d = %d after zero", i, w)
		}
	}
}

func TestLoadStoreWindow(t *testing.T) {
	s := bitstream.FromPositions(256, 0, 70, 200)
	dst := make([]uint64, 2)
	loadWindow(dst, s, 1) // words 1..2 => bits 64..191
	if dst[0]&(1<<6) == 0 {
		t.Fatal("bit 70 missing from window")
	}
	loadWindow(dst, s, 3) // word 3 valid, word 4 beyond backing => zero
	if dst[1] != 0 {
		t.Fatal("beyond-stream word not zeroed")
	}
	// Store back into a fresh stream.
	out := bitstream.New(256)
	src := []uint64{0, 1 << 6, 0}
	storeWindow(out, 0, src, 0, 3) // writes words 0..2
	if got := out.Positions(); len(got) != 1 || got[0] != 70 {
		t.Fatalf("positions = %v", got)
	}
}

func TestStoreWindowMasksTail(t *testing.T) {
	out := bitstream.New(70) // 2 words, 6 valid bits in word 1
	src := []uint64{0, ^uint64(0)}
	storeWindow(out, 0, src, 0, 2)
	if got := out.Popcount(); got != 6 {
		t.Fatalf("popcount = %d, want 6 (tail masked)", got)
	}
}

func TestOnesRunCrossing(t *testing.T) {
	mk := func(bits string) []uint64 {
		s := bitstream.FromBits(bits)
		w := make([]uint64, bitstream.WordsFor(s.Len()))
		copy(w, s.Words())
		return w
	}
	cases := []struct {
		bits        string
		boundary    int
		wantLen     int
		wantReaches bool
	}{
		{"00000000", 4, 0, false},
		{"00110000", 4, 2, false}, // run [2,3] ends at boundary-1
		{"11110000", 4, 4, true},  // run reaches window start
		{"01110000", 4, 3, false}, // run starts at 1
		{"11101111", 4, 0, false}, // bit 3 clear: no crossing run
		{"11111111", 8, 8, true},
	}
	for _, c := range cases {
		runLen, reaches := onesRunCrossing(mk(c.bits), c.boundary)
		if runLen != c.wantLen || reaches != c.wantReaches {
			t.Errorf("onesRunCrossing(%s, %d) = (%d, %v), want (%d, %v)",
				c.bits, c.boundary, runLen, reaches, c.wantLen, c.wantReaches)
		}
	}
}

func TestOnesRunCrossingLongRuns(t *testing.T) {
	// A 100-bit run ending at boundary 128 within a 192-bit window.
	w := make([]uint64, 3)
	s := bitstream.New(192)
	for i := 28; i < 128; i++ {
		s.Set(i)
	}
	copy(w, s.Words())
	runLen, reaches := onesRunCrossing(w, 128)
	if runLen != 100 || reaches {
		t.Fatalf("got (%d, %v), want (100, false)", runLen, reaches)
	}
	// Extend to the start: now it reaches.
	for i := 0; i < 28; i++ {
		s.Set(i)
	}
	copy(w, s.Words())
	_, reaches = onesRunCrossing(w, 128)
	if !reaches {
		t.Fatal("full-prefix run not flagged")
	}
}

func TestStarThruWordsMatchesStreamVersion(t *testing.T) {
	m := bitstream.FromPositions(192, 3, 64, 130)
	c := bitstream.New(192)
	for i := 0; i < 192; i += 3 {
		c.Set(i)
		c.Set(i + 1)
	}
	want := bitstream.MatchStar(m, c)
	ww := 3
	dst := make([]uint64, ww)
	t1, t2 := make([]uint64, ww), make([]uint64, ww)
	starThruWords(dst, m.Words(), c.Words(), t1, t2)
	got := bitstream.FromWords(dst, 192)
	if !got.Equal(want) {
		t.Fatalf("starThruWords diverges:\n got  %s\n want %s", got, want)
	}
}

func TestWordKernels(t *testing.T) {
	x := []uint64{0b1100, 0}
	y := []uint64{0b1010, ^uint64(0)}
	dst := make([]uint64, 2)
	if or := andWords(dst, x, y); dst[0] != 0b1000 || dst[1] != 0 || or != 0b1000 {
		t.Fatal("andWords")
	}
	if andWords(dst, x, []uint64{0b0011, 0}) != 0 || andNotWords(dst, x, []uint64{0b1100, 0}) != 0 {
		t.Fatal("all-zero result not reported")
	}
	orWords(dst, x, y)
	if dst[0] != 0b1110 {
		t.Fatal("orWords")
	}
	xorWords(dst, x, y)
	if dst[0] != 0b0110 {
		t.Fatal("xorWords")
	}
	if or := andNotWords(dst, x, y); dst[0] != 0b0100 || or != 0b0100 {
		t.Fatal("andNotWords")
	}
	notWords(dst, x)
	if dst[0] != ^uint64(0b1100) {
		t.Fatal("notWords")
	}
	if anyWords([]uint64{0, 0}) || !anyWords([]uint64{0, 4}) {
		t.Fatal("anyWords")
	}
}

// ---------- the view / known-zero register contract ----------

func TestRegFileKnownZero(t *testing.T) {
	r := newRegFile(2)
	r.beginWindow(3)
	r.buf(0)[1] = 42
	r.zero(0)
	if !r.has(0) || !r.isZero(0) {
		t.Fatal("zeroed register not present and known zero")
	}
	if got := r.get(0); len(got) != 3 || anyWords(got) {
		t.Fatalf("known-zero register reads as %v, want 3 zero words", got)
	}
	if r.own[0][1] != 42 {
		t.Fatal("zero wrote the register's storage; the tag must cost no memory traffic")
	}
	// A wider window still reads as all zero.
	r.beginWindow(9)
	if r.has(0) || r.isZero(0) || r.get(0) != nil {
		t.Fatal("known-zero tag survived the window change")
	}
	r.zero(1)
	if got := r.get(1); len(got) != 9 || anyWords(got) {
		t.Fatalf("known-zero register reads as %v, want 9 zero words", got)
	}
	// Writing a register that was known zero hands out owned storage and
	// drops the tag.
	b := r.buf(1)
	b[0] = 7
	if r.isZero(1) || r.get(1)[0] != 7 {
		t.Fatal("buf after zero did not clear the tag")
	}
	if anyWords(r.zeros) {
		t.Fatal("the shared zero words were written")
	}
}

func TestRegFileViewAndCopyOnWrite(t *testing.T) {
	s := bitstream.FromPositions(64*6, 70, 200, 300)
	before := slices.Clone(s.Words())
	r := newRegFile(3)
	r.beginWindow(2)

	v := r.view(0, s, 1) // words 1..2
	if &v[0] != &s.Words()[1] || len(v) != 2 || cap(v) != 2 {
		t.Fatal("in-range view is not a length-capped alias of the stream words")
	}
	if r.get(0)[0] != 1<<6 || r.isZero(0) {
		t.Fatal("view does not read the stream's words")
	}
	// mut copies: same contents, storage that is not the stream's.
	m := r.mut(0)
	if &m[0] == &v[0] || !slices.Equal(m, v) {
		t.Fatal("copy-on-write accessor returned the view itself or different contents")
	}
	m[0] = ^uint64(0)
	if r.get(0)[0] != ^uint64(0) || &r.mut(0)[0] != &m[0] {
		t.Fatal("register does not hold its private copy after mut")
	}
	// buf after view: owned storage, never the stream's.
	r.view(1, s, 4)
	if b := r.buf(1); &b[0] == &s.Words()[4] {
		t.Fatal("buf after view returned the viewed words for writing")
	}
	// A window sticking out of the stream is copied and zero-padded.
	out := r.view(2, s, 5)
	if &out[0] == &s.Words()[5] || out[0] != s.Words()[5] || out[1] != 0 {
		t.Fatalf("out-of-range view = %v, want an owned zero-padded copy", out)
	}
	// mut of a known-zero and of an absent register: zero-filled storage.
	r.beginWindow(2)
	r.own[0][0], r.own[0][1] = 5, 5
	r.zero(0)
	if z := r.mut(0); anyWords(z) || r.isZero(0) {
		t.Fatal("mut of a known-zero register is not zero-filled owned storage")
	}
	r.own[1][0] = 5
	if z := r.mut(1); anyWords(z) || !r.has(1) {
		t.Fatal("mut of an absent register is not zero-filled owned storage")
	}
	if !slices.Equal(s.Words(), before) {
		t.Fatal("the viewed stream was written")
	}
}

// ---------- the deferred-shift register contract ----------

// TestDeferredAnyMatchesMaterializedShift checks the any-bit test a guard runs
// on a deferred register against anyWords of the shift it stands for, over
// every single-bit source — so each bit the shift drops at either window edge
// or past endBit is seen not to count — plus an empty and a full source, for
// bit, word and whole-window distances, window end aligned and not.
func TestDeferredAnyMatchesMaterializedShift(t *testing.T) {
	const ww = 3
	dropped := 0
	for _, endBit := range []int{ww * 64, ww*64 - 23} {
		for _, dist := range []int{1, 7, 63, 64, 65, ww * 64} {
			for _, k := range []int{dist, -dist} {
				for bit := -2; bit < ww*64; bit++ {
					src := make([]uint64, ww)
					switch {
					case bit == -1:
						for i := range src {
							src[i] = ^uint64(0)
						}
					case bit >= 0:
						src[bit/64] = 1 << (uint(bit) % 64)
					}
					r := newRegFile(1)
					r.beginWindow(ww)
					r.endBit = endBit
					r.shift(0, src, r.full, int32(k), true)
					got := r.any(0)
					if r.own[0] != nil { // a mask shifted off the window needs no source either
						t.Fatal("the any-bit test computed the shift")
					}
					want := anyWords(r.get(0))
					if got != want {
						t.Fatalf("endBit %d k %d source bit %d: any = %v, the materialized shift has any = %v", endBit, k, bit, got, want)
					}
					if bit >= 0 && !want {
						dropped++
					}
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no source had bits only in the dropped margin")
	}
}

// TestDeferredForcesOnceIntoOwnedStorage: get and mut compute a deferred
// register once, into its own storage with the window tail masked, and never
// write the source — here a view of a stream.
func TestDeferredForcesOnceIntoOwnedStorage(t *testing.T) {
	s := bitstream.New(64 * 4)
	s.OnesInto()
	before := slices.Clone(s.Words())
	r := newRegFile(3)
	r.beginWindow(2)
	r.endBit = 100
	src := r.view(0, s, 1)

	r.shift(1, src, r.full, 3, true)
	if w, k, ok := r.deferredSrc(1); !ok || k != 3 || &w[0] != &src[0] {
		t.Fatal("a bit-distance deferral does not offer its source for folding")
	}
	ones := ^uint64(0)
	got := r.get(1)
	if want := []uint64{ones << 3, 1<<36 - 1}; !slices.Equal(got, want) {
		t.Fatalf("forced shift = %x, want %x (tail masked at bit 100)", got, want)
	}
	if r.state[1] != regOwned || &got[0] != &r.own[1][0] || &r.get(1)[0] != &got[0] || &r.mut(1)[0] != &got[0] {
		t.Fatal("a forced register is not owned storage that later reads return as is")
	}
	if _, _, ok := r.deferredSrc(1); ok {
		t.Fatal("a forced register still reads as deferred")
	}

	// A word-distance deferral is not foldable; mut computes it.
	r.shift(2, src, r.full, -70, true)
	if _, _, ok := r.deferredSrc(2); ok {
		t.Fatal("a word-distance deferral was offered to the bit-shift kernels")
	}
	m := r.mut(2)
	if want := []uint64{ones >> 6, 0}; !slices.Equal(m, want) || &m[0] != &r.own[2][0] {
		t.Fatalf("mut of a deferred register = %x, want %x in owned storage", m, want)
	}
	m[0] = 5
	if !slices.Equal(s.Words(), before) {
		t.Fatal("forcing or writing a deferred register wrote its source")
	}
}

// BenchmarkShiftWordsLink is one link of a literal's AND chain over a 2 KB
// window, three ways: the shift moved into its own buffer and then ANDed (a
// guard-cut batch before deferral), folded into the AND's pass (a deferred or
// sunk shift), and the guard's any-bit test over the source — all a link
// behind a dead chain costs now.
func BenchmarkShiftWordsLink(b *testing.B) {
	const ww = 256
	src, c, tmp, dst := make([]uint64, ww), make([]uint64, ww), make([]uint64, ww), make([]uint64, ww)
	for i := range src {
		src[i], c[i] = uint64(i)*0x9e3779b97f4a7c15, ^uint64(i)
	}
	run := func(name string, link func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(ww * 8)
			for i := 0; i < b.N; i++ {
				link()
			}
		})
	}
	run("moved", func() {
		bitstream.ShiftWords(tmp, src, -7)
		andWords(dst, tmp, c)
	})
	run("folded", func() { fusedShiftBin(sbShiftAnd, dst, src, c, -7, 0) })
	clear(tmp) // an empty source is scanned to its end
	run("tested", func() {
		if anyBits(tmp, 7, ww*64) {
			b.Fatal("a bit in an empty source")
		}
	})
}

// TestKnownZeroLiveOutCommitsZeros drives commitWindow directly: a live-out
// register tagged known zero must clear exactly the committed range of its
// global, like an absent one — here the output, as if a later segment read it
// back. Compact, the output appends only the window's non-zero words.
func TestKnownZeroLiveOutCommitsZeros(t *testing.T) {
	p := lower.MustSingle("re", "ab")
	s, err := newTestSession(p, Config{Grid: tinyGrid, Mode: ModeDTM}, &arena.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	basis := transpose.Transpose(make([]byte, 64*4))
	ex := s.ex
	ex.reset(context.Background(), s.compiled, basis, s.cfg.withDefaults(basis.N))
	v := p.Outputs[0].Var
	if s.isMat[v] {
		t.Fatalf("output S%d is materialized; nothing reads it back", v)
	}
	k := *s.compiled
	k.isMat = slices.Clone(s.isMat)
	k.isMat[v] = true
	ex.k = &k
	g := ex.ensureGlobal(v)
	g.OnesInto()
	ex.ws, ex.weBits, ex.ww = 64, 64*3, 2
	ex.regs.beginWindow(ex.ww)
	ex.regs.zero(v)
	ex.commitWindow([]ir.VarID{v}, 64, 128)
	want := []uint64{^uint64(0), 0, ^uint64(0), ^uint64(0)}
	if !slices.Equal(g.Words(), want) {
		t.Fatalf("global after committing a known-zero register = %x, want %x", g.Words(), want)
	}

	k.isMat[v] = false
	ex.commitWindow([]ir.VarID{v}, 64, 128)
	copy(ex.regs.mut(v), []uint64{0, 5})
	ex.commitWindow([]ir.VarID{v}, 64, 192)
	if got, want := ex.words[v], (bitstream.Compact{{Index: 2, Bits: 5}}); !slices.Equal(got, want) {
		t.Fatalf("compact output after a known-zero and a {0, 5} window = %v, want %v", got, want)
	}
}

// ---------- the live-tile mask contract ----------

// maskAudit checks the register file's mask invariants wherever Executor.afterOp
// fires — after every µop, a probe's flooded loop condition still in place —
// and records what the run covered, so a case set that never reaches a partial mask, a probe pass or a
// second window width fails instead of passing vacuously.
type maskAudit struct {
	probeOps, partial int // hook calls in probe passes, partial masks seen
	tileWords         int // widest tile
	widths            map[int]bool
	regrown           bool // a window re-executed from a grown overlap
	lastCS, lastWS    int
}

// attach installs the audit on s; every violation is a test error under label.
func (a *maskAudit) attach(t *testing.T, label string, s testSession) {
	ex := s.ex
	if a.widths == nil {
		a.widths = make(map[int]bool)
	}
	a.lastCS = -1
	ex.afterOp = func() {
		r := ex.regs
		if ex.saturate {
			a.probeOps++
		}
		a.widths[r.ww] = true
		a.tileWords = max(a.tileWords, r.tw)
		if ex.cs == a.lastCS && ex.ws < a.lastWS {
			a.regrown = true
		}
		a.lastCS, a.lastWS = ex.cs, ex.ws
		tileOf := func(w int) uint64 { return 1 << (w / r.tw) }
		for v := range r.own {
			id := ir.VarID(v)
			// A clean tile the buffer holds whole is all zero, whether or not
			// the register is present: the next writer will not clear it. The
			// window's last tile and those past it are never taken for clean.
			own := r.own[v][:cap(r.own[v])]
			for w, x := range own[:min(len(own), (r.ww+r.tw-1)/r.tw*r.tw-r.tw)] {
				if x != 0 && r.dirty[v]&tileOf(w) == 0 {
					t.Errorf("%s: S%d storage word %d is %#x in a tile marked clean (dirty %#x)", label, v, w, x, r.dirty[v])
					return
				}
			}
			if !r.has(id) || r.live[v] == 0 {
				continue
			}
			live := r.live[v]
			if live&^r.full != 0 {
				t.Errorf("%s: S%d live mask %#x has tiles past the window's %#x", label, v, live, r.full)
				return
			}
			if live != r.full {
				a.partial++
			}
			words := r.val[v]
			switch r.state[v] {
			case regView:
				if live != r.full {
					t.Errorf("%s: view S%d has the partial mask %#x", label, v, live)
					return
				}
			case regOwned:
				if &words[0] != &r.own[v][0] || live&^r.dirty[v] != 0 {
					t.Errorf("%s: owned S%d is not its own storage, or live %#x outside dirty %#x", label, v, live, r.dirty[v])
					return
				}
			case regDeferred:
				words = make([]uint64, r.ww)
				bitstream.ShiftWords(words, r.val[v], int(r.shiftK[v]))
				r.maskTail(words)
			}
			for w, x := range words {
				if x != 0 && live&tileOf(w) == 0 {
					t.Errorf("%s: S%d (state %d) word %d is %#x outside its live tiles %#x", label, v, r.state[v], w, x, live)
					return
				}
			}
		}
	}
}

// TestMasksHoldAfterEveryOp runs the pinned case set, the sparse inputs and a
// group each of the Brill (unbounded: probed windows), Yara and Bro217
// generators on the default grid — 258-word windows, five-word tiles — under
// the mask audit: after every µop, in real and probe passes, every non-zero word of every
// present register lies in one of its live tiles, owned storage reads zero
// outside them, and no buffer holds a non-zero word in a tile it calls clean.
// Outputs are checked against the interpreter by the pinned cases' own run.
func TestMasksHoldAfterEveryOp(t *testing.T) {
	cases := slices.Concat(handpickedCases(), randomCases(t), gridCases(), sparseCases(t))
	for _, name := range []string{"Brill", "Yara", "Bro217"} {
		app, err := workload.Load(name, workload.Options{RegexScale: 0.05, InputBytes: 10 << 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		p, err := lower.Group(app.Regexes[:min(len(app.Regexes), 4)], lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, pinnedCase{
			label: "generated-" + name,
			prog:  optimize(p, true),
			input: app.Input,
			cfg:   Config{Grid: gpusim.DefaultGrid(), Mode: ModeDTM, HonorGuards: true},
		})
	}
	var audit maskAudit
	for _, c := range cases {
		basis := transpose.Transpose(c.input)
		s, err := newTestSession(c.prog, c.cfg, &arena.Arena{})
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		audit.attach(t, c.label, s)
		want := interpRef(t, c.prog, basis)
		// Twice: the second run starts on the buffers and dirty masks of the
		// first, its first window narrower than the last one before it.
		for run := 0; run < 2; run++ {
			outs, _, err := runStreams(s, basis)
			if err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			for oi, o := range c.prog.Outputs {
				if got := outs[oi]; !o.Nullable && !got.Equal(want[o.Name]) {
					t.Errorf("%s: run %d: output %s diverges from the interpreter", c.label, run, o.Name)
				}
			}
		}
		s.Close()
		if t.Failed() {
			return
		}
	}
	if audit.probeOps == 0 || audit.partial == 0 || audit.tileWords < 2 || len(audit.widths) < 4 || !audit.regrown {
		t.Fatalf("the case set does not exercise the masks: %d µops in probe passes, %d partial masks, tiles of %d words, %d window widths, regrown overlap %v",
			audit.probeOps, audit.partial, audit.tileWords, len(audit.widths), audit.regrown)
	}
	t.Logf("%d µops audited in probe passes, %d partial masks, %d window widths", audit.probeOps, audit.partial, len(audit.widths))
}

// TestBinOverTileRunsMatchesWholeWindow drives regFile.bin the way execBin and
// the shift-binaries do — the result mask from binMask over the operands' masks,
// a shifted one's moved by shiftMask — for all eight codes, k in ±{1, 7, 63},
// and operand masks that put a run edge on every tile boundary: one operand
// live everywhere, so the word just outside a run has bits for the shift to
// pull, the other in one run of tiles; and both in runs of their own. The
// destination is a third register, a's or c's, drawn per case. The register must read word for
// word what one kernel pass over whole windows stores, inside a mask that
// covers every non-zero word, with its storage zero outside it. 71 words cut
// into two-word tiles leave the last tile half in the window and endBit inside
// its only word.
func TestBinOverTileRunsMatchesWholeWindow(t *testing.T) {
	const ww = 71
	rng := rand.New(rand.NewSource(71))
	r := newRegFile(3)
	r.beginWindow(ww)
	r.endBit = ww*64 - 13
	nt := bits.Len64(r.full)
	if r.tw != 2 || nt != 36 {
		t.Fatalf("%d words cut into %d tiles of %d words, want 36 of 2", ww, nt, r.tw)
	}
	// fill makes v an owned register with random words in the tiles m.
	fill := func(v ir.VarID, m uint64) {
		b := r.storage(v)
		for w := range b {
			b[w] = 0
			if m>>(w/r.tw)&1 != 0 {
				b[w] = rng.Uint64() | 1<<uint(rng.Intn(64))
			}
		}
		r.maskTail(b)
		r.setOwned(v, r.full, m)
	}
	type opcase struct {
		code sbOpCode
		k    int
	}
	ops := []opcase{{sbAnd, 0}, {sbOr, 0}, {sbXor, 0}, {sbAndNot, 0}}
	for _, code := range []sbOpCode{sbShiftAnd, sbShiftOr, sbShiftAndNot} {
		for _, k := range []int{1, 7, 63, -1, -7, -63} {
			ops = append(ops, opcase{code, k})
		}
	}
	partial := 0
	for t0 := 0; t0 < nt; t0++ {
		for t1 := t0 + 1; t1 <= nt; t1++ {
			run := runMask(t0, t1-t0)
			u0 := rng.Intn(nt)
			other := runMask(u0, 1+rng.Intn(nt-u0))
			for _, masks := range [][2]uint64{{r.full, run}, {run, r.full}, {run, other}} {
				for _, op := range ops {
					dst := ir.VarID(rng.Intn(3)) // 0: a itself, 1: c itself, 2: neither
					fill(0, masks[0])
					fill(1, masks[1])
					fill(2, r.full) // what dst held before is not to show through
					a, c := r.get(0), r.get(1)
					want := make([]uint64, ww)
					binWords(op.code, want, a, c, op.k, 0)
					r.maskTail(want)
					ma := r.live[0]
					if op.k != 0 {
						ma = r.shiftMask(ma, op.k)
					}
					m := binMask(op.code, ma, r.live[1])
					if m == 0 {
						if anyWords(want) {
							t.Fatalf("code %d k %d masks %#x: result mask 0 for a non-zero result", op.code, op.k, masks)
						}
						continue
					}
					r.bin(op.code, dst, a, op.k, c, m)
					got, live := r.get(dst), r.live[dst]
					if !slices.Equal(got, want) {
						t.Fatalf("code %d k %d masks %#x dst S%d: the register differs from the whole-window pass", op.code, op.k, masks, dst)
					}
					if live != r.full {
						partial++
					}
					for w, x := range want {
						if x != 0 && live>>(w/r.tw)&1 == 0 {
							t.Fatalf("code %d k %d masks %#x dst S%d: word %d is %#x outside the live tiles %#x", op.code, op.k, masks, dst, w, x, live)
						}
					}
					if live != 0 && !slices.Equal(r.own[dst], want) {
						t.Fatalf("code %d k %d masks %#x dst S%d: owned storage is not the value — stale tiles were not cleared", op.code, op.k, masks, dst)
					}
				}
			}
		}
	}
	if partial == 0 {
		t.Fatal("no result kept a partial mask")
	}
}

// checksumWords folds word slices into one FNV-1a value.
func checksumWords(streams ...*bitstream.Stream) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range streams {
		if s == nil {
			continue
		}
		for _, w := range s.Words() {
			h = (h ^ w) * 1099511628211
		}
	}
	return h
}

// TestViewsAreNeverWritten runs the whole pinned case set — the 9 patterns in
// 3 modes, the 120 random trials, the three grids — and checks around every
// Session.Run that nothing a register may alias was written through it: the
// basis planes, the shared zero words, and (on a second run over the same
// input) every materialized global, which must come out word for word as the
// first run left it. The same goes for what a deferred register reads its shift
// from — views and other registers — and the set must keep deferring shifts
// for the check to mean that.
func TestViewsAreNeverWritten(t *testing.T) {
	lazy := 0
	defer func() {
		if lazy == 0 && !t.Failed() {
			t.Fatal("no case compiled a deferrable shift")
		}
	}()
	for _, set := range [][]pinnedCase{handpickedCases(), randomCases(t), gridCases()} {
		for _, c := range set {
			basis := transpose.Transpose(c.input)
			s, err := newTestSession(c.prog, c.cfg, &arena.Arena{})
			if err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			basisSum := checksumWords(basis.Streams[:]...)
			var globals []uint64
			for run := 0; run < 2; run++ {
				if _, _, err := s.Run(context.Background(), basis); err != nil {
					t.Fatalf("%s: %v", c.label, err)
				}
				if checksumWords(basis.Streams[:]...) != basisSum {
					t.Fatalf("%s: run %d wrote the basis", c.label, run)
				}
				if anyWords(s.ex.regs.zeros) {
					t.Fatalf("%s: run %d wrote the shared zero words", c.label, run)
				}
				for v, g := range s.ex.globals {
					sum := checksumWords(g)
					if run == 0 {
						globals = append(globals, sum)
					} else if globals[v] != sum {
						t.Fatalf("%s: materialized S%d differs between two runs over one input", c.label, v)
					}
				}
			}
			eachProgram(s.pl, func(p *sbProgram) {
				for i := range p.ops {
					if p.ops[i].lazy {
						lazy++
					}
				}
			})
			s.Close()
		}
	}
}
