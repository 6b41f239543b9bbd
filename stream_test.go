package bitgen

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// TestScanReaderMatchesWholeInput streams 50 KB of random words, 4096-byte
// chunks among others, on a 2×32 geometry.
func TestScanReaderMatchesWholeInput(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	words := []string{"cat", "dog", "dugg", "bird", "bir", "fish", "xxxx", " "}
	var b strings.Builder
	for b.Len() < 50_000 {
		b.WriteString(words[rng.Intn(len(words))])
	}
	(&conformance{t: t}).set("as given", corpus{patterns: []string{"cat", "d[ou]g{1,2}", "bird?"}, input: []byte(b.String()),
		opts: &Options{ctas: 2, threads: 32}, extra: []int{4092}})
}

// TestScanReaderBoundaryStraddle places a match across every 1000-byte chunk
// boundary.
func TestScanReaderBoundaryStraddle(t *testing.T) {
	input := []byte(strings.Repeat("x", 5000))
	for _, pos := range []int{998, 1997, 2999, 3996} {
		copy(input[pos:], "abcde")
	}
	if n := straddles(reference(t, []string{"abcde"}, input), 1000); n != 4 {
		t.Fatalf("the corpus straddles %d of the 4 chunk boundaries", n)
	}
	(&conformance{t: t}).row(corpus{patterns: []string{"abcde"}, input: input, opts: &Options{ctas: 1, threads: 32}, wide: true, extra: []int{995}})
}

func TestScanReaderRejectsUnbounded(t *testing.T) {
	eng := MustCompile([]string{"ab*c"}, &Options{ctas: 1, threads: 32})
	err := eng.ScanReader(strings.NewReader("abc"), 1024, func(Match) {})
	if err == nil {
		t.Fatal("unbounded pattern accepted for streaming")
	}
}

func TestScanReaderRejectsTinyChunks(t *testing.T) {
	eng := MustCompile([]string{"abcdefghij"}, &Options{ctas: 1, threads: 32})
	err := eng.ScanReader(strings.NewReader("x"), 5, func(Match) {})
	if err == nil {
		t.Fatal("chunk smaller than max match accepted")
	}
}

// brokenReader serves from data until fail bytes have been read, then
// returns errDisk.
type brokenReader struct {
	data []byte
	pos  int
	fail int
}

var errDisk = errors.New("disk read failure")

func (r *brokenReader) Read(p []byte) (int, error) {
	if r.pos >= r.fail {
		return 0, errDisk
	}
	n := copy(p, r.data[r.pos:r.fail])
	r.pos += n
	return n, nil
}

func TestScanReaderMidStreamReadFailure(t *testing.T) {
	eng := MustCompile([]string{"cat"}, &Options{ctas: 1, threads: 32})
	input := []byte(strings.Repeat("xxcatxxx", 400)) // 3200 bytes, match every 8
	const fail = 2500
	var got []Match
	err := eng.ScanReader(&brokenReader{data: input, fail: fail}, 1000, func(m Match) {
		got = append(got, m)
	})
	if err == nil {
		t.Fatal("mid-stream read failure was swallowed")
	}
	var re *ReadError
	if !errors.As(err, &re) {
		t.Fatalf("error %v (%T) is not a *ReadError", err, err)
	}
	if re.Offset != fail {
		t.Fatalf("ReadError.Offset = %d, want %d (bytes delivered before the failure)", re.Offset, fail)
	}
	if !errors.Is(err, errDisk) {
		t.Fatalf("underlying reader error lost from chain: %v", err)
	}
	if !strings.Contains(err.Error(), "offset 2500") {
		t.Fatalf("error message lacks the offset: %q", err.Error())
	}
	// Every match in the chunks flushed before the failure was emitted:
	// two full 1000-byte chunks were scanned, so all matches ending at or
	// before 2000 must be present and correctly positioned.
	want := 0
	for end := 4; end <= 2000; end += 8 {
		want++
	}
	n := 0
	for _, m := range got {
		if m.End <= 2000 {
			n++
			if (m.End-4)%8 != 0 {
				t.Fatalf("bogus match end %d", m.End)
			}
		}
	}
	if n != want {
		t.Fatalf("emitted %d matches before the failure point, want %d", n, want)
	}
}

func TestScanReaderImmediateReadFailure(t *testing.T) {
	eng := MustCompile([]string{"cat"}, &Options{ctas: 1, threads: 32})
	err := eng.ScanReader(&brokenReader{fail: 0}, 1024, func(Match) {
		t.Fatal("emit called despite the reader failing at offset 0")
	})
	var re *ReadError
	if !errors.As(err, &re) || re.Offset != 0 {
		t.Fatalf("err = %v, want *ReadError at offset 0", err)
	}
}

func TestScanReaderShortInput(t *testing.T) {
	eng := MustCompile([]string{"hi"}, &Options{ctas: 1, threads: 32})
	count := 0
	if err := eng.ScanReader(strings.NewReader("hi"), 1024, func(Match) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	// Empty input.
	if err := eng.ScanReader(strings.NewReader(""), 1024, func(Match) {
		t.Fatal("match on empty input")
	}); err != nil {
		t.Fatal(err)
	}
}
