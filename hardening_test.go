package bitgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bitgen/internal/engine"
	"bitgen/internal/faultinject"
	"bitgen/internal/lower"
	"bitgen/internal/rx"
)

func TestMaxPatternsLimit(t *testing.T) {
	_, err := Compile([]string{"a", "b", "c"}, &Options{Limits: Limits{MaxPatterns: 2}})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("3 patterns with MaxPatterns 2 returned %v, want ErrLimit", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.Limit != "patterns" || le.Value != 3 || le.Max != 2 {
		t.Fatalf("limit error = %+v", le)
	}
	if _, err := Compile([]string{"a", "b"}, &Options{Limits: Limits{MaxPatterns: 2}}); err != nil {
		t.Fatalf("2 patterns refused: %v", err)
	}
}

func TestMaxInputBytesLimit(t *testing.T) {
	e, err := Compile([]string{"cat"}, &Options{Limits: Limits{MaxInputBytes: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(make([]byte, 17)); !errors.Is(err, ErrLimit) {
		t.Fatalf("oversized Run returned %v, want ErrLimit", err)
	}
	if _, err := e.CountOnly(make([]byte, 17)); !errors.Is(err, ErrLimit) {
		t.Fatalf("oversized CountOnly returned %v, want ErrLimit", err)
	}
	if _, err := e.Run([]byte("the cat sat")); err != nil {
		t.Fatalf("in-limit Run failed: %v", err)
	}
}

func TestUnknownDeviceIsUnsupported(t *testing.T) {
	_, err := Compile([]string{"cat"}, &Options{Device: "TPU v9"})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("unknown device returned %v, want ErrUnsupported", err)
	}
}

func TestScanReaderListsAllUnboundedPatterns(t *testing.T) {
	e, err := Compile([]string{"abc", "a+b", "x.{3}", "c*d"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	scanErr := e.ScanReader(strings.NewReader("abc"), 0, func(Match) {})
	if !errors.Is(scanErr, ErrUnsupported) {
		t.Fatalf("unbounded streaming returned %v, want ErrUnsupported", scanErr)
	}
	var ue *UnsupportedError
	if !errors.As(scanErr, &ue) {
		t.Fatalf("error %v is not an *UnsupportedError", scanErr)
	}
	want := []string{"a+b", "c*d"}
	if len(ue.Patterns) != len(want) {
		t.Fatalf("offending patterns = %v, want %v (all of them)", ue.Patterns, want)
	}
	for i, p := range want {
		if ue.Patterns[i] != p {
			t.Fatalf("offending patterns = %v, want %v", ue.Patterns, want)
		}
	}
}

func TestScanReaderUsesCompileTimeBound(t *testing.T) {
	// maxLen for "x.{3}" is 4; a chunk of 4 must be refused, 5 accepted.
	e, err := Compile([]string{"x.{3}"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.maxLen != 4 {
		t.Fatalf("cached maxLen = %d, want 4", e.maxLen)
	}
	if err := e.ScanReader(strings.NewReader("xabcxdef"), 4, func(Match) {}); err == nil {
		t.Fatal("chunk == maxLen accepted")
	}
	var got []Match
	if err := e.ScanReader(strings.NewReader("xabcxdef"), 5, func(m Match) { got = append(got, m) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("matches = %v, want 2", got)
	}
}

// TestCountOnlyMatchesRunCounts: on a set with an optional suffix and a
// counted repeat, every backend's CountOnly and Run counts are the reference's.
func TestCountOnlyMatchesRunCounts(t *testing.T) {
	input := []byte(strings.Repeat("cat doggy 1234 dog 56 catalog ", 40))
	(&conformance{t: t}).row(corpus{patterns: []string{"cat", "dog(gy)?", "\\d{2,4}"}, input: input, wide: true})
}

func TestRunContextCancellation(t *testing.T) {
	e, err := Compile([]string{"cat"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx, []byte("the cat")); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled RunContext returned %v", err)
	}
	if _, err := e.CountOnlyContext(ctx, []byte("the cat")); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled CountOnlyContext returned %v", err)
	}
	if err := e.ScanReaderContext(ctx, strings.NewReader("the cat"), 0, func(Match) {}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ScanReaderContext returned %v", err)
	}
	if _, err := CompileContext(ctx, []string{"cat"}, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled CompileContext returned %v", err)
	}
	// The engine survives cancellations.
	if _, err := e.Run([]byte("the cat")); err != nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
}

// TestInternalErrorSurfacesThroughPublicAPI arms the fault injector on an
// internally-built engine and asserts the public error taxonomy sees the
// contained panic.
func TestInternalErrorSurfacesThroughPublicAPI(t *testing.T) {
	patterns := []string{"cat", "dog"}
	regexes := make([]lower.Regex, len(patterns))
	for i, p := range patterns {
		regexes[i] = lower.Regex{Name: p, AST: rx.MustParse(p)}
	}
	cfg := engine.BitGenDefault()
	cfg.KeepOutputs = true
	cfg.Inject = faultinject.New(1).ArmNth(faultinject.KernelPanic, 1)
	inner, err := engine.Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{inner: inner, patterns: patterns, indexesOf: map[string][]int{"cat": {0}, "dog": {1}}}
	e.initRankIndexes()
	_, err = e.Run([]byte("cat dog"))
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("public API error %v is not a *bitgen.InternalError", err)
	}
	if len(ie.Patterns) == 0 || ie.Group < 0 {
		t.Fatalf("internal error lacks attribution: %+v", ie)
	}
	if _, err := e.Run([]byte("cat dog")); err != nil {
		t.Fatalf("engine unusable after contained panic: %v", err)
	}
}

// TestConcurrentUseOneEngine exercises Run (on the input and on a prefix),
// CountOnly and ScanReader from many goroutines on a single Engine; run
// under -race it proves the compiled Engine is safely shareable.
func TestConcurrentUseOneEngine(t *testing.T) {
	e, err := Compile([]string{"cat", "d.g", "\\d{2}"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("cat 42 dog dig 7 catalog ", 30))
	ref, err := e.CountOnly(input)
	if err != nil {
		t.Fatal(err)
	}
	refMatches, err := e.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	prefix := input[:len(input)/2]
	refPrefix, err := e.Run(prefix)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 12
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch (w + i) % 4 {
				case 0:
					res, err := e.Run(input)
					if err != nil {
						errc <- err
						return
					}
					if len(res.Matches) != len(refMatches.Matches) {
						errc <- fmt.Errorf("concurrent Run saw %d matches, want %d", len(res.Matches), len(refMatches.Matches))
						return
					}
				case 1:
					counts, err := e.CountOnly(input)
					if err != nil {
						errc <- err
						return
					}
					for p, n := range ref {
						if counts[p] != n {
							errc <- fmt.Errorf("concurrent CountOnly %s = %d, want %d", p, counts[p], n)
							return
						}
					}
				case 2:
					res, err := e.Run(prefix)
					if err != nil {
						errc <- err
						return
					}
					if len(res.Matches) != len(refPrefix.Matches) {
						errc <- fmt.Errorf("concurrent Run on the prefix saw %d matches, want %d", len(res.Matches), len(refPrefix.Matches))
						return
					}
				case 3:
					n := 0
					if err := e.ScanReader(bytes.NewReader(input), 64, func(Match) { n++ }); err != nil {
						errc <- err
						return
					}
					if n != len(refMatches.Matches) {
						errc <- fmt.Errorf("concurrent ScanReader saw %d matches, want %d", n, len(refMatches.Matches))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// FuzzScanReaderChunkBoundaries streams any input through the harness's cells
// on a fixed set whose maxLen is 5, at a fuzzed legal chunk size besides the
// fixed ones.
func FuzzScanReaderChunkBoundaries(f *testing.F) {
	f.Add([]byte("abc a5c 42 qiik abc"), uint16(8))
	f.Add([]byte(strings.Repeat("abcabc12", 40)), uint16(16))
	f.Add([]byte("qk q12k ab"), uint16(5))
	f.Add([]byte{}, uint16(9))
	// Every byte ends a match of two patterns (and all but the first of a
	// third): the collector's several-outputs-one-position path, in every
	// word and across every chunk cut.
	f.Add([]byte(strings.Repeat("7", 300)), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, rawChunk uint16) {
		patterns := []string{"abc", "a.c", "\\d{2}", "q[^u]{1,3}k", "\\d", "[0-9]"}
		(&conformance{t: t}).set("as given", corpus{patterns: patterns, input: data, extra: []int{1 + int(rawChunk%512)}})
	})
}
