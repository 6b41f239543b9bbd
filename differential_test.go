package bitgen

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"bitgen/internal/rx"
)

// fuzzPatterns derives a small deduplicated pattern set from a seed using
// the shared generator, rendered back to source syntax.
func fuzzPatterns(seed uint64, count int) []string {
	rng := rand.New(rand.NewSource(int64(seed)))
	opts := rx.GenOptions{MaxDepth: 3, MaxRepeat: 3}
	seen := make(map[string]bool)
	var out []string
	for tries := 0; len(out) < count && tries < 4*count; tries++ {
		p := rx.Generate(rng, opts).String()
		if len(p) == 0 || len(p) > 40 || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// fuzzInput maps raw fuzz bytes into the generator's alphabet (with some
// untouched noise bytes) so generated patterns actually match.
func fuzzInput(data []byte) []byte {
	if len(data) > 4<<10 {
		data = data[:4<<10]
	}
	in := make([]byte, len(data))
	for i, b := range data {
		if b%5 == 0 {
			in[i] = b // raw noise
		} else {
			in[i] = 'a' + b%10
		}
	}
	return in
}

// FuzzBackendsAgree is the differential oracle behind the backend pin: for
// random bounded patterns and random inputs, the bitstream kernel, the
// hybrid AC engine, and the NFA reference must produce identical match
// sets — otherwise pinning a backend silently changes results.
func FuzzBackendsAgree(f *testing.F) {
	f.Add(uint64(1), []byte("abcabcddef aabbcc"))
	f.Add(uint64(7), []byte("jjjjiihhaa gggff"))
	f.Add(uint64(42), []byte{})
	f.Add(uint64(1234), []byte("the quick brown fox abca"))
	// Seeds chosen to exercise the match-semantics edge cases: nullable
	// patterns (the generator emits Star/Opt freely), end-of-input
	// positions, empty inputs, and — via the appended duplicate below —
	// duplicate-pattern index fan-out.
	f.Add(uint64(99), []byte("a"))
	// Duplicate-heavy and shared-charclass seeds: odd seeds amplify the
	// set below, so these drive the compressed compile's interning and
	// shared extended basis through the same oracle.
	f.Add(uint64(101), []byte("abcfgj afgj aafjgg"))
	f.Add(uint64(203), []byte("ffgjffgj aaa jgfa"))
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		patterns := fuzzPatterns(seed, 4)
		if len(patterns) == 0 {
			t.Skip("generator produced no usable patterns")
		}
		// Every fuzz set carries a duplicate entry so index fan-out is
		// differentially checked on all backends.
		patterns = append(patterns, patterns[0])
		// Odd seeds additionally stress the compressed compile: two
		// class-heavy entries shared verbatim across the set (promoted to
		// the shared extended basis) plus a second duplicate round.
		if seed%2 == 1 {
			patterns = append(patterns, "[a-f][g-j]", "[a-f][g-j]", patterns[len(patterns)/2])
		}
		input := fuzzInput(data)

		type outcome struct {
			matches     []Match
			indexCounts []int
		}
		results := make(map[string]outcome, 3)
		for _, backend := range []string{BackendBitstream, BackendHybrid, BackendNFA} {
			e, err := Compile(patterns, &Options{
				Resilience: &ResilienceOptions{ForceBackend: backend},
			})
			if errors.Is(err, ErrLimit) || errors.Is(err, ErrUnsupported) {
				t.Skip(err)
			}
			if err != nil {
				t.Fatalf("compile %v for %s: %v", patterns, backend, err)
			}
			res, err := e.Run(input)
			if errors.Is(err, ErrLimit) {
				t.Skip(err)
			}
			if err != nil {
				t.Fatalf("%s run: %v", backend, err)
			}
			results[backend] = outcome{res.Matches, res.IndexCounts}
		}

		ref := results[BackendNFA]
		for _, backend := range []string{BackendBitstream, BackendHybrid} {
			got := results[backend]
			if len(got.matches) != len(ref.matches) {
				t.Fatalf("patterns %v: %s found %d matches, nfa reference %d\n%s: %v\nnfa: %v",
					patterns, backend, len(got.matches), len(ref.matches), backend, got.matches, ref.matches)
			}
			for i := range got.matches {
				if got.matches[i] != ref.matches[i] {
					t.Fatalf("patterns %v: %s match %d = %+v, nfa reference %+v",
						patterns, backend, i, got.matches[i], ref.matches[i])
				}
			}
			if !reflect.DeepEqual(got.indexCounts, ref.indexCounts) {
				t.Fatalf("patterns %v: %s IndexCounts %v, nfa reference %v",
					patterns, backend, got.indexCounts, ref.indexCounts)
			}
		}

		// Streaming leg: when the pattern set is streamable, the
		// pipelined scanner — over chunk sizes hugging the overlap boundary,
		// where carried prefixes are nearly whole chunks — must emit exactly
		// the NFA-verified whole-input match sequence, order included.
		se, err := Compile(patterns, &Options{ScanWorkers: 2})
		if err != nil || len(se.unbounded) > 0 || len(se.nullable) > 0 || se.maxLen == 0 || len(input) == 0 {
			return
		}
		for _, cs := range []int{se.maxLen + 1, 2 * se.maxLen} {
			var got []Match
			if err := se.ScanReader(bytes.NewReader(input), cs, func(m Match) { got = append(got, m) }); err != nil {
				t.Fatalf("patterns %v chunk %d: ScanReader: %v", patterns, cs, err)
			}
			if len(got) != len(ref.matches) {
				t.Fatalf("patterns %v chunk %d: stream emitted %d matches, nfa reference %d\nstream: %v\nnfa: %v",
					patterns, cs, len(got), len(ref.matches), got, ref.matches)
			}
			for i := range got {
				if got[i] != ref.matches[i] {
					t.Fatalf("patterns %v chunk %d: stream match %d = %+v, nfa reference %+v",
						patterns, cs, i, got[i], ref.matches[i])
				}
			}
		}
	})
}
