package bitgen

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/bitstream"
	"bitgen/internal/faultinject"
	"bitgen/internal/hybrid"
	"bitgen/internal/nfa"
	"bitgen/internal/rx"
	"bitgen/internal/workload"
)

// The conformance harness is the engine's one correctness check: every entry
// point, snapshot round-trip, launch geometry, GOMAXPROCS, worker count, chunk
// size and fault plan must produce the (End, Pattern, Index) sequence of
// DESIGN §3.1 that reference computes, or the typed error errors.go names for
// the cell. The two baselines, the hybrid matcher and one combined NFA, must
// produce it too.

// reference lists the matches of patterns in input the slow way: each public
// index is simulated alone on a Glushkov NFA built for its pattern only, and
// the results are merged by (End, Pattern, Index), Pattern compared as a byte
// string. It shares no deduplication, rank or fan-out code with the engine.
func reference(t testing.TB, patterns []string, input []byte) []Match {
	t.Helper()
	var out []Match
	for i, p := range patterns {
		n, err := nfa.Build([]string{p}, []rx.Node{rx.MustParse(p)})
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		s := nfa.Simulate(n, input).Outputs[0]
		for end := s.NextSetBit(0); end >= 0; end = s.NextSetBit(end + 1) {
			out = append(out, Match{Pattern: p, Index: i, End: end})
		}
	}
	sortMatches(out)
	return out
}

// sortMatches puts ms in (End, Pattern, Index) order.
func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Pattern, b.Pattern), cmp.Compare(a.Index, b.Index))
	})
}

// tinyGeometry launches 4-thread CTAs: 128-bit blocks, on which loops and
// carry chains outgrow the overlap and take the materialized fallback.
var tinyGeometry = Options{ctas: 2, threads: 4}

// conformance runs the cells of one test and counts what its corpus reached,
// so a corpus that stops straddling a chunk boundary, taking a fallback,
// sharing classes, holding a nullable set or being refused fails.
type conformance struct {
	t                                              *testing.T
	straddled, fallback, shared, nullable, refused int
}

// corpus is one pattern set, the input to match it on, and how widely to
// check it. wide adds the fresh engine's decoded copy, the set on tinyGeometry
// and the fault plans. Each extra adds the chunk size maxLen+extra to the
// ScanReader cells.
type corpus struct {
	patterns []string
	input    []byte
	opts     *Options
	wide     bool
	extra    []int
}

// row checks k's pattern set as given, reversed, and with its first pattern
// appended again: the first on every axis when wide, the other two on the
// fresh engine.
func (c *conformance) row(k corpus) {
	reversed := slices.Clone(k.patterns)
	slices.Reverse(reversed)
	for i, ps := range [][]string{k.patterns, reversed, append(slices.Clone(k.patterns), k.patterns[0])} {
		v := k
		v.patterns, v.wide = ps, i == 0 && k.wide
		c.set([...]string{"as given", "reversed", "duplicated"}[i], v)
	}
}

// set checks k on its fresh engine and, when wide, on that engine's decoded
// copy, on tinyGeometry and under faults; and it checks the baselines.
func (c *conformance) set(label string, k corpus) {
	t, patterns, input, wide := c.t, k.patterns, k.input, k.wide
	want := reference(t, patterns, input)
	baselines(t, label, patterns, input, want)
	fresh, err := Compile(patterns, k.opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if fresh.inner.SharedClasses() != nil {
		c.shared++
	}
	if len(fresh.nullable) > 0 {
		c.nullable++
	}
	chunks := []int{fresh.maxLen, fresh.maxLen + 1, 64, 4099, 256 << 10}
	for _, x := range k.extra {
		chunks = append(chunks, fresh.maxLen+x)
	}
	names, engines := []string{"fresh"}, []*Engine{fresh}
	if wide {
		decoded, err := DecodeEngine(EncodeEngine(fresh), k.opts)
		if err != nil {
			t.Fatalf("%s: decode: %v", label, err)
		}
		names, engines = append(names, "decoded"), append(engines, decoded)
		tiny, err := Compile(patterns, &tinyGeometry)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res, err := tiny.inner.RunCounts(context.Background(), input); err == nil && res.Fallbacks > 0 {
			c.fallback++
		}
		names, engines = append(names, "tiny"), append(engines, tiny)
	}
	// The streams Run checks — the input, a prefix, nothing — and their references.
	streams := [][]byte{input, input[:len(input)/3], {}}
	wants := [][]Match{want, reference(t, patterns, streams[1]), reference(t, patterns, nil)}
	refusals := map[int]string{}
	var stats Stats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, e := range engines {
		runtime.GOMAXPROCS(1 + i%2)
		s := c.entryPoints(label+"/"+names[i], e, streams, wants, chunks, refusals)
		if i == 0 {
			stats = s
		} else if names[i] == "decoded" && s != stats {
			t.Fatalf("%s: the decoded engine models %+v, the fresh one %+v", label, s, stats)
		}
	}
	if wide {
		c.faults(label, fresh, input, want, stats)
	}
}

// streamable reports whether ScanReader accepts e's patterns at all.
func streamable(e *Engine) bool { return len(e.unbounded) == 0 && len(e.nullable) == 0 && e.maxLen > 0 }

// entryPoints checks every entry point of e against wants (on streams[0], but
// Run on all streams) and returns its Run's modeled statistics. refusals
// holds, per chunk size, the first engine's refusal: all must refuse alike.
func (c *conformance) entryPoints(label string, e *Engine, streams [][]byte, wants [][]Match, chunks []int, refusals map[int]string) Stats {
	t, input, want := c.t, streams[0], wants[0]
	res, err := e.Run(input)
	if err != nil {
		t.Fatalf("%s: Run: %v", label, err)
	}
	same(t, label+": Run", res.Matches, want)
	counts, err := e.CountOnly(input)
	if err != nil {
		t.Fatalf("%s: CountOnly: %v", label, err)
	}
	wantCounts, wantIndex := countsOf(want, len(e.patterns))
	if !slices.Equal(res.IndexCounts, wantIndex) {
		t.Fatalf("%s: IndexCounts %v, the reference's %v", label, res.IndexCounts, wantIndex)
	}
	sameCounts(t, label+": Run", res.Counts, wantCounts)
	sameCounts(t, label+": CountOnly", counts, wantCounts)
	for i := 1; i < len(streams); i++ {
		r, err := e.Run(streams[i])
		if err != nil {
			t.Fatalf("%s: Run stream %d: %v", label, i, err)
		}
		same(t, label+": Run stream", r.Matches, wants[i])
	}
	for _, workers := range []int{1, 2, 4} {
		for _, chunk := range chunks {
			a := &arena.Arena{}
			e.scanArena, e.scanWorkers = a, workers
			var got []Match
			err := e.ScanReader(bytes.NewReader(input), chunk, func(m Match) { got = append(got, m) })
			e.scanArena, e.scanWorkers = nil, 0
			if !streamable(e) || chunk <= e.maxLen {
				if !errors.Is(err, ErrUnsupported) || got != nil {
					t.Fatalf("%s: chunk %d: %d matches and %v, want an ErrUnsupported refusal", label, chunk, len(got), err)
				}
				if first, ok := refusals[chunk]; ok && first != err.Error() {
					t.Fatalf("%s: chunk %d refused with %q, another engine with %q", label, chunk, err, first)
				}
				refusals[chunk] = err.Error()
				c.refused++
			} else if err != nil {
				t.Fatalf("%s: workers %d chunk %d: %v", label, workers, chunk, err)
			} else {
				same(t, label+": ScanReader", got, want)
				c.straddled += straddles(want, chunk)
			}
			if err := a.CheckBalanced(); err != nil {
				t.Fatalf("%s: workers %d chunk %d: %v", label, workers, chunk, err)
			}
		}
	}
	// Nothing since, pooled sessions included, wrote the first result.
	same(t, label+": an earlier Run's Matches", res.Matches, want)
	return res.Stats
}

// baselines checks the paper's two comparison matchers against want: the
// hybrid Aho-Corasick decomposition (two shards, so shard outputs merge) and
// one NFA built over every distinct pattern. Both answer per distinct pattern
// string; each answer fans out to every index of that string.
func baselines(t testing.TB, label string, patterns []string, input []byte, want []Match) {
	t.Helper()
	names := slices.Clone(patterns)
	slices.Sort(names)
	names = slices.Compact(names)
	asts := make([]rx.Node, len(names))
	for i, p := range names {
		asts[i] = rx.MustParse(p)
	}
	h, err := hybrid.Compile(names, asts, hybrid.Options{Threads: 2})
	if err != nil {
		t.Fatalf("%s: hybrid: %v", label, err)
	}
	n, err := nfa.Build(names, asts)
	if err != nil {
		t.Fatalf("%s: nfa: %v", label, err)
	}
	hs, ns := h.Scan(input).Outputs, nfa.Simulate(n, input).Outputs
	for _, m := range []struct {
		name   string
		stream func(i int) *bitstream.Stream
	}{
		{"hybrid", func(i int) *bitstream.Stream { return hs[names[i]] }},
		{"combined NFA", func(i int) *bitstream.Stream { return ns[i] }},
	} {
		var got []Match
		for i, p := range patterns {
			s := m.stream(sort.SearchStrings(names, p))
			for end := s.NextSetBit(0); end >= 0; end = s.NextSetBit(end + 1) {
				got = append(got, Match{Pattern: p, Index: i, End: end})
			}
		}
		sortMatches(got)
		same(t, label+": "+m.name, got, want)
	}
}

// faults arms one fault at a time on the bitstream engine e under each entry
// point: a failed launch must surface as ErrTransient (a scan after emitting
// exactly the matches before the failing chunk), a panic as *InternalError, a
// forced fallback not at all. The next clean Run on e, which may borrow what
// the faulted call pooled, must list the reference with a fresh engine's stats.
func (c *conformance) faults(label string, e *Engine, input []byte, want []Match, stats Stats) {
	t := c.t
	clean := e.inner
	defer func() { e.inner = clean }()
	wantCounts, _ := countsOf(want, len(e.patterns))
	// Streamed in two chunks when the input allows.
	chunk := max(e.maxLen+1, len(input)/2)
	failing := min(1, max(len(input)-1, 0)/chunk)
	prefix := want[:sort.Search(len(want), func(i int) bool { return want[i].End >= failing*chunk })]
	calls := []string{"Run", "CountOnly", "ScanReader"}
	if !streamable(e) || len(input) == 0 { // nothing to launch a scan on
		calls = calls[:2]
	}
	// Under ScanReader with one worker, a launch failure fires at the second
	// chunk's first launch and a panic at the first chunk's.
	for _, plan := range []struct {
		point   faultinject.Point
		class   func(error) bool
		scanHit uint64  // the hit that fires under ScanReader
		emitted []Match // what that scan emits
	}{
		{faultinject.LaunchFail, func(err error) bool { return errors.Is(err, ErrTransient) }, uint64(failing*len(clean.Groups()) + 1), prefix},
		{faultinject.KernelPanic, func(err error) bool { return errors.As(err, new(*InternalError)) }, 1, nil},
		{faultinject.ForceFallback, func(err error) bool { return err == nil }, 1, want},
	} {
		for _, call := range calls {
			cell := label + ": " + string(plan.point) + " under " + call
			hit := uint64(1)
			if call == "ScanReader" {
				hit = plan.scanHit
			}
			e.inner = clean.WithInjector(faultinject.New(1).ArmNth(plan.point, hit))
			var err error
			switch call {
			case "Run":
				var res *Result
				if res, err = e.Run(input); err == nil {
					same(t, cell, res.Matches, want)
				}
			case "CountOnly":
				var counts map[string]int
				if counts, err = e.CountOnly(input); err == nil {
					sameCounts(t, cell, counts, wantCounts)
				}
			case "ScanReader":
				var got []Match
				e.scanWorkers = 1
				err = e.ScanReader(bytes.NewReader(input), chunk, func(m Match) { got = append(got, m) })
				e.scanWorkers = 0
				same(t, cell, got, plan.emitted)
			}
			if !plan.class(err) {
				t.Fatalf("%s: %v", cell, err)
			}
			res, err := e.Run(input)
			if err != nil {
				t.Fatalf("%s, the next clean Run: %v", cell, err)
			}
			same(t, cell+", the next clean Run", res.Matches, want)
			if res.Stats != stats {
				t.Fatalf("%s: the next clean Run models %+v, a fresh engine %+v", cell, res.Stats, stats)
			}
		}
	}
}

// same fails the test unless got is want, match for match.
func same(t testing.TB, label string, got, want []Match) {
	t.Helper()
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	if i < len(got) || i < len(want) {
		t.Fatalf("%s: %d matches, the reference %d; first difference at %d:\n got  %v\n want %v",
			label, len(got), len(want), i, got[i:min(i+4, len(got))], want[i:min(i+4, len(want))])
	}
}

// sameCounts fails the test unless got holds want's counts; a pattern missing
// from either counts 0.
func sameCounts(t testing.TB, label string, got, want map[string]int) {
	t.Helper()
	for _, m := range []map[string]int{got, want} {
		for p := range m {
			if got[p] != want[p] {
				t.Fatalf("%s: %q counted %d, the reference %d", label, p, got[p], want[p])
			}
		}
	}
}

// countsOf is the per-string and per-index match counts of a match list.
func countsOf(ms []Match, n int) (map[string]int, []int) {
	counts, index := map[string]int{}, make([]int, n)
	for _, m := range ms {
		counts[m.Pattern]++
		index[m.Index]++
	}
	return counts, index
}

// straddles counts the chunk boundaries of an End-ordered match list that some
// match begins before and ends at or after: a match of pattern p is at least
// rx.MinLength(p) bytes long.
func straddles(ms []Match, chunk int) int {
	minLen, n, last := map[string]int{}, 0, 0
	for _, m := range ms {
		l, ok := minLen[m.Pattern]
		if !ok {
			l = rx.MinLength(rx.MustParse(m.Pattern))
			minLen[m.Pattern] = l
		}
		if b := m.End / chunk * chunk; b > last && m.End-l+1 < b {
			n, last = n+1, b
		}
	}
	return n
}

// TestConformance runs the lattice over all ten workload generators. The
// hand-written corpora, each run through the same cells, are the tests
// named after what their corpus stresses: TestRunCollectsLikeTheReference,
// TestScanReaderLadderMatchesRunAcrossChunkSizes, TestStateCompressionDifferential
// and the rest that call conformance.row or conformance.set.
func TestConformance(t *testing.T) {
	c := &conformance{}
	for _, name := range workload.Names() {
		app, err := workload.Load(name, workload.Options{RegexScale: 0.01, InputBytes: 8 << 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			c.t = t
			c.row(corpus{patterns: app.Patterns, input: app.Input, wide: true})
		})
	}
	// Nullable sets are TestNullableEndOfInputAcrossBackends' to reach.
	if c.straddled == 0 || c.fallback == 0 || c.shared == 0 || c.refused == 0 {
		t.Fatalf("the corpus no longer reaches every case: %d straddled chunk boundaries, %d fallbacks, %d shared-class engines, %d refusals",
			c.straddled, c.fallback, c.shared, c.refused)
	}
}

// fuzzPatterns derives up to four distinct patterns from a seed using the
// shared generator, rendered back to source syntax.
func fuzzPatterns(seed uint64) []string {
	rng := rand.New(rand.NewSource(int64(seed)))
	opts := rx.GenOptions{MaxDepth: 3, MaxRepeat: 3}
	var out []string
	for tries := 0; len(out) < 4 && tries < 16; tries++ {
		if p := rx.Generate(rng, opts).String(); len(p) > 0 && len(p) <= 40 && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// fuzzInput maps raw fuzz bytes into the generator's alphabet (with some
// untouched noise bytes) so generated patterns actually match.
func fuzzInput(data []byte) []byte {
	in := make([]byte, min(len(data), 4<<10))
	for i := range in {
		if b := data[i]; b%5 == 0 {
			in[i] = b // raw noise
		} else {
			in[i] = 'a' + b%10
		}
	}
	return in
}

// fuzzSeeds are the (seed, data) corpus of the generated-set fuzz targets:
// nullable patterns and end-of-input positions (99), empty inputs (42), and
// odd seeds, which amplify the set with shared classes (101, 203).
var fuzzSeeds = []struct {
	seed uint64
	data string
}{
	{1, "abcabcddef aabbcc"}, {7, "jjjjiihhaa gggff"}, {42, ""}, {1234, "the quick brown fox abca"},
	{99, "a"}, {101, "abcfgj afgj aafjgg"}, {203, "ffgjffgj aaa jgfa"},
}

// fuzzSet is fuzzPatterns(seed) with its first pattern appended again (odd
// seeds add two shared class-heavy entries and a second duplicate) and its
// fresh engine; sets the engine refuses to compile are skipped.
func fuzzSet(t *testing.T, seed uint64) ([]string, *Engine) {
	patterns := fuzzPatterns(seed)
	if len(patterns) == 0 {
		t.Skip("generator produced no usable patterns")
	}
	patterns = append(patterns, patterns[0])
	if seed%2 == 1 {
		patterns = append(patterns, "[a-f][g-j]", "[a-f][g-j]", patterns[len(patterns)/2])
	}
	e, err := Compile(patterns, nil)
	if errors.Is(err, ErrLimit) || errors.Is(err, ErrUnsupported) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatalf("compile %q: %v", patterns, err)
	}
	return patterns, e
}

// FuzzMatchersAgree runs the harness's cells on generated pattern sets: every
// matcher, entry point and chunk size must list the reference's matches.
func FuzzMatchersAgree(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.seed, []byte(s.data))
	}
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		patterns, _ := fuzzSet(t, seed)
		(&conformance{t: t}).row(corpus{patterns: patterns, input: fuzzInput(data), wide: true})
	})
}
