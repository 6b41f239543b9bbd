package engine

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/bitstream"
	"bitgen/internal/charclass"
	"bitgen/internal/gpusim"
	"bitgen/internal/transpose"
	"bitgen/internal/workload"
)

// sharedApp is one input to the evaluator tests: a name, the classes the
// engine shares for it, and an input to compute them over.
type sharedApp struct {
	name  string
	sets  []charclass.Class
	input []byte
}

// sharedApps returns the classes the engine shares for every workload
// generator at the default grid, and for a 500-signature megaset, each with
// 20 000 bytes of its own input (not a whole number of words); and a
// hand-written list of the edge sizes: 0, 1, 129, 255 and 256 members.
func sharedApps(t testing.TB) []sharedApp {
	t.Helper()
	var apps []sharedApp
	share := func(name string, app *workload.App, err error) {
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{}
		e.initShared(partition(app.Regexes, gpusim.DefaultGrid().CTAs))
		if e.shared != nil {
			apps = append(apps, sharedApp{name, e.shared, app.Input})
		}
	}
	for _, name := range workload.Names() {
		app, err := workload.Load(name, workload.Options{InputBytes: 20_000, Seed: 1})
		share(name, app, err)
	}
	app, err := workload.Megaset(500, 1, 20_000)
	share("megaset-500", app, err)
	var odd charclass.Class // 129 members: every even byte, and 0x01
	for c := 0; c < 256; c += 2 {
		odd.Add(byte(c))
	}
	odd.Add(1)
	hand := []charclass.Class{charclass.Empty(), charclass.Single('a'), odd, charclass.Single('a').Negate(),
		charclass.Dot(), charclass.Any(), charclass.Range(0x80, 0xff), charclass.Range('0', '9')}
	apps = append(apps, sharedApp{"hand", hand, []byte("a0\n\x80\xff")})
	return apps
}

// evalOps pins the evaluator's ops for every generator's shared classes
// (sharedApps): now, and at the BDD-per-class evaluator this one replaced
// (a chain per class, value-numbered across classes). The decoder must
// stay within 65 % of the old count.
var evalOps = map[string]struct{ ops, old int }{
	"Brill":       {62, 133},
	"Dotstar":     {67, 142},
	"Protomata":   {121, 245},
	"Snort":       {146, 277},
	"Yara":        {88, 171},
	"Ranges1":     {62, 133},
	"TCP":         {82, 163},
	"ClamAV":      {314, 517},
	"Bro217":      {68, 137},
	"ExactMatch":  {62, 133},
	"megaset-500": {314, 517},
}

// checkStreams holds basis's extended streams to the sets byte by byte: bit i
// of stream j is set exactly when input[i] is in sets[j], and no bit past the
// input is; and its presence rows to the streams' words.
func checkStreams(t *testing.T, what string, sets []charclass.Class, basis *transpose.Basis, input []byte) {
	t.Helper()
	if len(basis.Ext) != len(sets) {
		t.Fatalf("%s: %d streams for %d classes", what, len(basis.Ext), len(sets))
	}
	for j, cl := range sets {
		s := basis.Bit(transpose.NumBasis + j)
		words := s.Words()
		if s.Len() != len(input) || len(words) != bitstream.WordsFor(len(input)) {
			t.Fatalf("%s: class %v: %d bits in %d words for %d bytes", what, cl, s.Len(), len(words), len(input))
		}
		for w, x := range words {
			var want uint64
			for b := range 64 {
				if i := 64*w + b; i < len(input) && cl.Contains(input[i]) {
					want |= 1 << b
				}
			}
			if x != want {
				t.Fatalf("%s, %d bytes: class %v word %d is %016x, its bytes say %016x", what, len(input), cl, w, x, want)
			}
		}
	}
	if want := presence(basis); basis.PresW != (len(sets)+63)/64 || !slices.Equal(basis.Pres, want) {
		t.Fatalf("%s, %d bytes: %d-word presence rows %x, the words say %x", what, len(input), basis.PresW, basis.Pres, want)
	}
}

// TestClassEvalMatchesMatchStream checks every shared class the evaluator
// computes against byte membership, bit for bit (tails included), and every
// presence row against the streams' words: over every byte value, over the
// generator's own input, and over random bytes at lengths around a word and a
// tile, each list on one session's streams that shrink and grow between
// chunks. The streams are borrowed from an arena that balances once the
// tracker closes. It pins each generator's op count (evalOps).
func TestClassEvalMatchesMatchStream(t *testing.T) {
	apps := sharedApps(t)
	if len(apps) < 6 {
		t.Fatalf("only %d workloads share classes", len(apps))
	}
	tile := classTile * 64
	every := make([]byte, 3*256+37) // every byte value, three times, then 37 more
	for i := range every {
		every[i] = byte(i)
	}
	lengths := []int{70001, 1, 63, tile + 1, 64, 65, tile - 1, tile, 0, 70001}
	rng := rand.New(rand.NewSource(7))
	for _, app := range apps {
		ev := newClassEval(app.sets)
		a := &arena.Arena{}
		tr := arena.NewTracker(a)
		basis := &transpose.Basis{}
		cs := newClassStreams(ev, basis, tr)
		inputs := [][]byte{every, app.input}
		for _, n := range lengths {
			input := make([]byte, n)
			rng.Read(input)
			inputs = append(inputs, input)
		}
		for _, input := range inputs {
			transpose.TransposeInto(basis, input)
			cs.compute(ev, basis, tr)
			checkStreams(t, app.name, app.sets, basis, input)
		}
		tr.Close()
		if err := a.CheckBalanced(); err != nil {
			t.Errorf("%s: %v", app.name, err)
		}
		t.Logf("%s: %d classes → %d ops, %d registers", app.name, ev.outs, len(ev.ops), ev.regs)
		if app.name == "hand" {
			continue
		}
		pin, ok := evalOps[app.name]
		switch {
		case !ok:
			t.Errorf("%s: no pinned op count", app.name)
		case len(ev.ops) != pin.ops:
			t.Errorf("%s: %d ops, pinned %d", app.name, len(ev.ops), pin.ops)
		case 100*pin.ops > 65*pin.old:
			t.Errorf("%s: %d ops is more than 65 %% of the old evaluator's %d", app.name, pin.ops, pin.old)
		}
	}
}

// FuzzClassEval computes random classes over random input and holds every
// stream and presence row to byte membership. The first 32 bytes of sets
// drive the class sizes (a byte b gives a class of about b members, or its
// complement); classes after the first 32 reuse the earlier bytes.
func FuzzClassEval(f *testing.F) {
	f.Add([]byte{0, 1, 128, 129, 255, 254, 16, 240}, int64(1), []byte("ab\x00\xff\x80 0123456789"))
	f.Add([]byte{200}, int64(2), bytes.Repeat([]byte{0x41, 0xc1}, 100))
	f.Add([]byte{}, int64(3), []byte{})
	f.Fuzz(func(t *testing.T, sizes []byte, seed int64, input []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := min(len(sizes), 300)
		sets := make([]charclass.Class, n)
		for i := range sets {
			size := int(sizes[i%32])
			if i >= 32 {
				size = int(sizes[i%32] ^ sizes[i%len(sizes)])
			}
			for range size {
				sets[i].Add(byte(rng.Intn(256)))
			}
			if size%2 == 1 {
				sets[i] = sets[i].Negate()
			}
		}
		ev := newClassEval(sets)
		tr := arena.NewTracker(nil)
		defer tr.Close()
		basis := &transpose.Basis{}
		cs := newClassStreams(ev, basis, tr)
		for _, in := range [][]byte{input, input[:len(input)/2]} {
			transpose.TransposeInto(basis, in)
			cs.compute(ev, basis, tr)
			checkStreams(t, "fuzz", sets, basis, in)
		}
	})
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
		ev := newClassEval(classes)
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
	e.initShared(partition(app.Regexes, gpusim.DefaultGrid().CTAs))
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
