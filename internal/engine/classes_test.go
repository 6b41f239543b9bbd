package engine

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/bitstream"
	"bitgen/internal/charclass"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/transpose"
	"bitgen/internal/workload"
)

// classOfKey inverts charclass.Class.Key: hex byte c/8 holds member c at bit c%8.
func classOfKey(t testing.TB, key string) charclass.Class {
	t.Helper()
	raw, err := hex.DecodeString(key)
	if err != nil || len(raw) != 32 {
		t.Fatalf("output %q is not a class key", key)
	}
	var cl charclass.Class
	for c := 0; c < 256; c++ {
		if raw[c/8]>>(c%8)&1 != 0 {
			cl.Add(byte(c))
		}
	}
	return cl
}

// sharedPrograms returns the shared-class program the engine builds for every
// workload generator at the default grid, for a 500-signature megaset, and
// for a hand-written set whose Not and Ones outputs set bits past any input
// that does not fill its last word (and the empty class, which is Zero).
func sharedPrograms(t testing.TB) map[string]*ir.Program {
	t.Helper()
	progs := make(map[string]*ir.Program)
	share := func(name string, app *workload.App, err error) {
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{}
		if _, err := e.initShared(partition(app.Regexes, gpusim.DefaultGrid().CTAs)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.shared != nil {
			progs[name] = e.shared
		}
	}
	for _, name := range workload.Names() {
		app, err := workload.Load(name, workload.Options{InputBytes: 64, Seed: 1})
		share(name, app, err)
	}
	app, err := workload.Megaset(500, 1, 64)
	share("megaset-500", app, err)
	hand, err := lower.SharedProgram([]charclass.Class{charclass.Single('a').Negate(), charclass.Dot(), charclass.Any(), charclass.Empty()})
	if err != nil {
		t.Fatal(err)
	}
	progs["hand"] = hand
	return progs
}

// TestClassEvalMatchesMatchStream checks every shared class the evaluator
// computes against charclass.MatchStream, word for word (tails included), and
// every presence row against the streams' words, on random bytes at lengths
// around a word and a tile, each program on one session's streams that shrink
// and grow between chunks. The streams are borrowed from an arena that
// balances once the tracker closes.
func TestClassEvalMatchesMatchStream(t *testing.T) {
	progs := sharedPrograms(t)
	if len(progs) < 6 {
		t.Fatalf("only %d workloads share classes", len(progs))
	}
	tile := classTile * 64
	lengths := []int{70001, 1, 63, tile + 1, 64, 65, tile - 1, tile, 0, 70001}
	rng := rand.New(rand.NewSource(7))
	inputs := make([][]byte, len(lengths))
	for i, n := range lengths {
		inputs[i] = make([]byte, n)
		rng.Read(inputs[i])
	}
	for name, p := range progs {
		ev, err := newClassEval(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		classes := make([]charclass.Class, len(p.Outputs))
		for i, o := range p.Outputs {
			classes[i] = classOfKey(t, o.Name)
		}
		a := &arena.Arena{}
		tr := arena.NewTracker(a)
		basis := &transpose.Basis{}
		cs := newClassStreams(ev, basis, tr)
		for _, input := range inputs {
			transpose.TransposeInto(basis, input)
			cs.compute(ev, basis, tr)
			for i, cl := range classes {
				got, want := basis.Bit(transpose.NumBasis+i), charclass.MatchStream(cl, basis)
				if got.Len() != want.Len() || !slices.Equal(got.Words(), want.Words()) {
					t.Fatalf("%s, %d bytes: class %v differs from MatchStream", name, len(input), cl)
				}
			}
			if want := presence(basis); basis.PresW != (len(classes)+63)/64 || !slices.Equal(basis.Pres, want) {
				t.Fatalf("%s, %d bytes: %d-word presence rows %x, the words say %x", name, len(input), basis.PresW, basis.Pres, want)
			}
		}
		tr.Close()
		if err := a.CheckBalanced(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		t.Logf("%s: %d classes, %d statements → %d ops, %d registers", name, ev.outs, len(p.Stmts), len(ev.ops), ev.regs)
	}
}

// presence is the presence rows of basis's extended streams word by word:
// bit j of row l is set when a word of line l of Ext[j] is.
func presence(basis *transpose.Basis) []uint64 {
	w := (len(basis.Ext) + 63) / 64
	rows := make([]uint64, (bitstream.WordsFor(basis.N)+transpose.LineWords-1)/transpose.LineWords*w)
	for j, s := range basis.Ext {
		for i, x := range s.Words() {
			if x != 0 {
				rows[i/transpose.LineWords*w+j/64] |= 1 << (j % 64)
			}
		}
	}
	return rows
}

// TestOccupancyAnswersLikeTheWords checks Basis.Present over the presence rows
// compute writes against the words of every range of a 40-word chunk — every
// start mod 8, every width — on one session's streams, chunk after chunk. A
// stream is in a range's set exactly when a whole line inside the range has a
// set bit: membership implies the range has one, and a bit in a whole line
// implies membership. 'a' lies in chosen words only (nowhere, in an edge word
// of a line, in the middle of one, two lines apart); [^b] there too, and past
// the input in the last word of a whole line, which Reinit clears. A second
// program puts 64 classes of bytes the input lacks first: they lie nowhere,
// and move 'a' and [^b] to the second word of every row.
func TestOccupancyAnswersLikeTheWords(t *testing.T) {
	var absent []charclass.Class
	for c := range 64 {
		absent = append(absent, charclass.Single(byte(0x80+c)))
	}
	pair := []charclass.Class{charclass.Single('a'), charclass.Single('b').Negate()}
	nonZero := func(x uint64) bool { return x != 0 }
	var edge, second int
	for _, classes := range [][]charclass.Class{pair, append(absent, pair...)} {
		p, err := lower.SharedProgram(classes)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := newClassEval(p)
		if err != nil {
			t.Fatal(err)
		}
		tr := arena.NewTracker(nil)
		defer tr.Close()
		basis := &transpose.Basis{}
		cs := newClassStreams(ev, basis, tr)
		set := make([]uint64, (len(classes)+63)/64)
		const n = 39*64 + 37 // five whole lines, the last word partial
		for _, at := range [][]int{nil, {0}, {7}, {8}, {12}, {15}, {16, 23}, {3, 33}, {38}, {39}} {
			input := bytes.Repeat([]byte{'b'}, n)
			for _, w := range at {
				input[w*64+5] = 'a'
			}
			transpose.TransposeInto(basis, input)
			cs.compute(ev, basis, tr)
			for from := 0; from < 40; from++ {
				for width := 1; from+width <= 40; width++ {
					basis.Present(set, from, width)
					lo, hi := (from+transpose.LineWords-1)/transpose.LineWords*transpose.LineWords, (from+width)/transpose.LineWords*transpose.LineWords
					for j, s := range basis.Ext {
						words := s.Words()
						inLines := lo < hi && slices.ContainsFunc(words[lo:hi], nonZero)
						in, inRange := set[j/64]>>(j%64)&1 != 0, slices.ContainsFunc(words[from:from+width], nonZero)
						if in != inLines || in && !inRange {
							t.Fatalf("'a' in words %v, %d classes: stream %d over words [%d, %d): in the set %v; a bit in a whole line %v, in the range %v",
								at, len(classes), j, from, from+width, in, inLines, inRange)
						}
						if inRange && !in {
							edge++
						}
						if in && j >= 64 {
							second++
						}
					}
				}
			}
		}
	}
	if edge == 0 || second == 0 {
		t.Fatalf("%d ranges with bits in edge words only, %d memberships in a row's second word; want both", edge, second)
	}
}

// BenchmarkSharedClasses is the evaluator alone on stream_sigs' shared
// classes (the Yara set at scale 0.05) over one 256 KiB chunk of its input,
// the presence rows included.
func BenchmarkSharedClasses(b *testing.B) {
	app, err := workload.Load("Yara", workload.Options{RegexScale: 0.05, InputBytes: 256 << 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	e := &Engine{}
	if _, err := e.initShared(partition(app.Regexes, gpusim.DefaultGrid().CTAs)); err != nil {
		b.Fatal(err)
	}
	basis := transpose.Transpose(app.Input)
	tr := arena.NewTracker(nil)
	defer tr.Close()
	cs := newClassStreams(e.classes, basis, tr)
	cs.compute(e.classes, basis, tr) // sizes the streams
	b.SetBytes(int64(len(app.Input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.compute(e.classes, basis, tr)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(app.Input)), "ns/byte")
	b.ReportMetric(float64(len(e.classes.ops)), "ops")
}
