package engine

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"bitgen/internal/arena"
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
// computes against charclass.MatchStream, word for word (tails included), on
// random bytes at lengths around a word and a tile, each program on one
// session's streams that shrink and grow between chunks. The streams are
// borrowed from an arena that balances once the tracker closes.
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
				if !slices.Equal(basis.Occ[i], lineOccupancy(got.Words())) {
					t.Fatalf("%s, %d bytes: class %v has the occupancy %x, its words %x", name, len(input), cl, basis.Occ[i], lineOccupancy(got.Words()))
				}
			}
		}
		tr.Close()
		if err := a.CheckBalanced(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		t.Logf("%s: %d classes, %d statements → %d ops, %d registers", name, ev.outs, len(p.Stmts), len(ev.ops), ev.regs)
	}
}

// lineOccupancy is the occupancy bitmap of w word by word: bit l%64 of word
// l/64 is set when a word of line l is.
func lineOccupancy(w []uint64) []uint64 {
	lines := (len(w) + transpose.LineWords - 1) / transpose.LineWords
	occ := make([]uint64, (lines+63)/64)
	for i, x := range w {
		if x != 0 {
			occ[i/transpose.LineWords/64] |= 1 << (i / transpose.LineWords % 64)
		}
	}
	return occ
}

// TestOccupancyAnswersLikeTheWords checks Basis.AnyWords over the occupancy
// compute writes against a scan of the words it answers for, for every range
// of a 40-word chunk — every start mod 8, every width under 8 words and wider
// ones over full lines — on one session's streams, chunk after chunk: a class
// whose bits lie in chosen words only (nowhere, in one edge word of a line,
// in the middle of one, in two lines apart) and a class the ops set only past
// the input, in the last word of a whole line, which Reinit clears. Raw
// planes and ranges leaving the stream have no answer.
func TestOccupancyAnswersLikeTheWords(t *testing.T) {
	p, err := lower.SharedProgram([]charclass.Class{charclass.Single('a'), charclass.Single('b').Negate()})
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
	const n = 39*64 + 37 // five whole lines, the last word partial
	for _, at := range [][]int{nil, {0}, {7}, {8}, {12}, {15}, {16, 23}, {3, 33}, {38}, {39}} {
		input := bytes.Repeat([]byte{'b'}, n)
		for _, w := range at {
			input[w*64+5] = 'a'
		}
		transpose.TransposeInto(basis, input)
		cs.compute(ev, basis, tr)
		for j := range basis.Ext {
			words := basis.Ext[j].Words()
			for from := 0; from < len(words); from++ {
				for width := 1; from+width <= len(words); width++ {
					want := slices.ContainsFunc(words[from:from+width], func(x uint64) bool { return x != 0 })
					if set, ok := basis.AnyWords(transpose.NumBasis+j, from, width); !ok || set != want {
						t.Fatalf("'a' in words %v: class %d over words [%d, %d): answered %v (ok %v), the words say %v", at, j, from, from+width, set, ok, want)
					}
				}
			}
			if _, ok := basis.AnyWords(transpose.NumBasis+j, len(words)-3, 4); ok {
				t.Fatalf("class %d answered for a range past its %d words", j, len(words))
			}
		}
		if _, ok := basis.AnyWords(3, 0, 8); ok {
			t.Fatal("a raw plane answered from occupancy it does not have")
		}
	}
	basis.Occ[0] = basis.Occ[0][:0]
	if _, ok := basis.AnyWords(transpose.NumBasis, 0, 8); ok {
		t.Fatal("a class whose bitmap does not cover it answered")
	}
}

// BenchmarkSharedClasses is the evaluator alone on stream_sigs' shared
// classes (the Yara set at scale 0.05) over one 256 KiB chunk of its input,
// the occupancy of every class stream included.
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
