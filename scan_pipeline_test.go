package bitgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"bitgen/internal/arena"
	"bitgen/internal/engine"
	"bitgen/internal/faultinject"
	"bitgen/internal/workload"
)

// trickleReader serves an endless repetition of unit, one unit per Read,
// pausing briefly so cancellation has room to land mid-stream.
type trickleReader struct {
	unit []byte
}

func (r *trickleReader) Read(p []byte) (int, error) {
	time.Sleep(100 * time.Microsecond)
	return copy(p, r.unit), nil
}

// TestScanPipelinedCancellation cancels the context from the emit callback
// while the reader still has endless input: the scan must return
// ErrCanceled promptly and hand back every pooled buffer (run under -race
// this also shakes out reader/worker/emit data races).
func TestScanPipelinedCancellation(t *testing.T) {
	eng := MustCompile([]string{"cat"}, &Options{CTAs: 1, Threads: 32})
	for _, workers := range []int{1, 4} {
		a := &arena.Arena{}
		eng.scanArena, eng.scanWorkers = a, workers
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		emitted := 0
		err := eng.ScanReaderContext(ctx, &trickleReader{unit: []byte("the cat sat ")}, 1024,
			func(Match) {
				emitted++
				once.Do(cancel)
			})
		eng.scanArena, eng.scanWorkers = nil, 0
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers %d: err = %v, want ErrCanceled", workers, err)
		}
		if emitted == 0 {
			t.Fatalf("workers %d: canceled before anything was emitted", workers)
		}
		if err := a.CheckBalanced(); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
	}
}

// gatedReader serves data freely up to gateAt bytes, then holds the next
// byte back until release closes (or a generous timeout, so a failing run
// reports instead of hanging).
type gatedReader struct {
	r       *bytes.Reader
	gateAt  int
	release <-chan struct{}
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.gateAt == 0 {
		select {
		case <-g.release:
		case <-time.After(10 * time.Second):
		}
		g.gateAt = -1
	}
	if g.gateAt > 0 && len(p) > g.gateAt {
		p = p[:g.gateAt]
	}
	n, err := g.r.Read(p)
	if g.gateAt > 0 {
		g.gateAt -= n
	}
	return n, err
}

// TestScanPipelinedContainsInjectedKernelPanic arms a one-shot kernel panic
// on a pipelined ScanReader. The reader holds chunk k back
// until every earlier chunk has been emitted, and the fault is armed for
// the first launch after that: it lands on group 0 of chunk k or — the
// launch counter is global — of a later chunk racing through another
// worker. Whichever chunk f that is, the panic must be contained: every
// match of the chunks before f emitted exactly once and in order, nothing
// from f or later (chunks past f are in flight or done by then), a typed
// *InternalError naming the poisoned group, a balanced arena, and an
// engine that scans cleanly afterwards.
func TestScanPipelinedContainsInjectedKernelPanic(t *testing.T) {
	const chunk, k, chunks = 512, 3, 12
	unit := "the quick fox, a lazy dog; "
	input := []byte(strings.Repeat(unit, chunks*chunk/len(unit)+1))[:chunks*chunk]

	for _, workers := range []int{1, 2, 4} {
		eng := MustCompile([]string{"fox|dog", "l.zy"}, &Options{CTAs: 2, Threads: 64, ScanWorkers: workers})
		groups := eng.inner.Groups()
		if len(groups) != 2 {
			t.Fatalf("compiled %d groups, test assumes 2", len(groups))
		}
		var ref []Match
		if err := eng.ScanReader(bytes.NewReader(input), chunk, func(m Match) { ref = append(ref, m) }); err != nil {
			t.Fatalf("workers %d: clean scan: %v", workers, err)
		}
		before := 0 // matches belonging to chunks ahead of chunk k
		for before < len(ref) && ref[before].End < k*chunk {
			before++
		}
		if before == 0 {
			t.Fatalf("degenerate corpus: no match precedes chunk %d", k)
		}

		// Two launches per chunk (one per group): chunks 0..k-1 account
		// for 2k, the next one is the first launch after the gate.
		inj := faultinject.New(1).ArmNth(faultinject.KernelPanic, 2*k+1)
		eng.inner = eng.inner.WithInjector(inj)
		a := &arena.Arena{}
		eng.scanArena = a

		release := make(chan struct{})
		var got []Match
		err := eng.ScanReader(&gatedReader{r: bytes.NewReader(input), gateAt: k * chunk, release: release}, chunk,
			func(m Match) {
				got = append(got, m)
				if len(got) == before {
					close(release)
				}
			})
		var ie *InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("workers %d: err = %v, want *InternalError", workers, err)
		}
		if ie.Group != 0 || !reflect.DeepEqual(ie.Patterns, groups[0].Names) {
			t.Fatalf("workers %d: error attributes group %d %v, want group 0 %v",
				workers, ie.Group, ie.Patterns, groups[0].Names)
		}
		if len(got) < before || len(got) >= len(ref) {
			t.Fatalf("workers %d: emitted %d matches, want at least the %d preceding chunk %d and fewer than all %d",
				workers, len(got), before, k, len(ref))
		}
		// f is the chunk the first withheld match belongs to: the emitted
		// sequence must be the reference cut exactly at f's start.
		f := ref[len(got)].End / chunk
		if f < k || f >= k+workers {
			t.Fatalf("workers %d: output stops at chunk %d, want one of the %d chunks in flight from chunk %d",
				workers, f, workers, k)
		}
		if !reflect.DeepEqual(got, ref[:len(got)]) || got[len(got)-1].End >= f*chunk {
			t.Fatalf("workers %d: emitted %d matches, want exactly those preceding chunk %d\ngot:  %v\nwant a prefix of: %v",
				workers, len(got), f, got, ref)
		}
		// The worker whose chunk panicked drops its session (the engine's
		// TestPooledSessionNotReusedAfterFallbackOrError pins that); neither
		// it nor the ones returned hold anything from these two arenas.
		if err := a.CheckBalanced(); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if err := arena.Default.CheckBalanced(); err != nil {
			t.Fatalf("workers %d: arena.Default: %v", workers, err)
		}

		// The one-shot fault is spent; the same engine scans cleanly.
		got = got[:0]
		if err := eng.ScanReader(bytes.NewReader(input), chunk, func(m Match) { got = append(got, m) }); err != nil {
			t.Fatalf("workers %d: scan after contained panic: %v", workers, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers %d: scan after contained panic emitted %d matches, want %d", workers, len(got), len(ref))
		}
		if err := a.CheckBalanced(); err != nil {
			t.Fatalf("workers %d: after recovery: %v", workers, err)
		}
	}
}

// TestScanReaderBorrowsPooledSessions: a streaming scan builds no session of
// its own when the engine's pool has one. With the collector off — a GC cycle
// may empty a sync.Pool — the second of two back-to-back scans allocates only
// the pipeline's per-call plumbing, where building and compiling one session
// for this set takes tens of thousands of objects; and nothing it borrows
// counts against the scan arena or arena.Default.
func TestScanReaderBorrowsPooledSessions(t *testing.T) {
	app, err := workload.Load("Yara", workload.Options{RegexScale: 0.05, InputBytes: 16 << 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	eng := MustCompile(app.Patterns, &Options{ScanWorkers: 1})
	a := &arena.Arena{}
	eng.scanArena = a
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	scan := func() {
		if err := eng.ScanReader(bytes.NewReader(app.Input), 4099, func(Match) {}); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun(1, f) calls f twice and counts the second call. The pool is
	// allowed to lose a session now and then (under the race detector it drops
	// one Put in four on purpose), so a few attempts may be needed.
	allocs := math.Inf(1)
	for try := 0; try < 8 && allocs >= 500; try++ {
		allocs = min(allocs, testing.AllocsPerRun(1, scan))
	}
	if allocs >= 500 {
		t.Fatalf("the second of two back-to-back ScanReader calls allocates %.0f objects, want < 500", allocs)
	}
	if err := a.CheckBalanced(); err != nil {
		t.Fatalf("scan arena: %v", err)
	}
	if err := arena.Default.CheckBalanced(); err != nil {
		t.Fatalf("arena.Default: %v", err)
	}
}

// TestRunUnboundedAllocs is the allocation ceiling of the one-shot control
// path: one Run of the repo benchmark's oneshot_control set — 92 unbounded
// Brill-style patterns, nearly every window re-executed by the saturation
// probe — over its 128 KiB input, on a warm pooled session with the collector
// off, allocates under 600 objects and 512 KiB: the result, not the windows.
// (A map pair and four 2 KB slices per probed window made it 5 400 objects
// and 5.9 MB.)
func TestRunUnboundedAllocs(t *testing.T) {
	app, err := workload.Load("Brill", workload.Options{RegexScale: 0.05, InputBytes: 128 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := MustCompile(app.Patterns, nil)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The pool may lose the session now and then (under the race detector it
	// drops one Put in four on purpose): best of a few tries, each after a
	// Run that leaves a session behind.
	objects, size := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for try := 0; try < 8 && (objects >= 600 || size >= 512<<10); try++ {
		var before, after runtime.MemStats
		if _, err := eng.Run(app.Input); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		if _, err := eng.Run(app.Input); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		size = min(size, after.TotalAlloc-before.TotalAlloc)
	}
	if objects >= 600 || size >= 512<<10 {
		t.Fatalf("one warm Run allocates %d objects and %d bytes, want < 600 and < %d", objects, size, 512<<10)
	}
	t.Logf("one warm Run: %d objects, %d bytes", objects, size)
}

// TestScanPipelinedReadFailureReturnsBuffers drives the mid-stream
// read-failure path (semantics are pinned by TestScanReaderMidStreamReadFailure)
// and asserts the failure leaks no pooled buffers.
func TestScanPipelinedReadFailureReturnsBuffers(t *testing.T) {
	eng := MustCompile([]string{"cat"}, &Options{CTAs: 1, Threads: 32})
	a := &arena.Arena{}
	eng.scanArena, eng.scanWorkers = a, 2
	input := []byte(strings.Repeat("xxcatxxx", 400))
	err := eng.ScanReader(&brokenReader{data: input, fail: 2500}, 1000, func(Match) {})
	eng.scanArena, eng.scanWorkers = nil, 0
	var re *ReadError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *ReadError", err)
	}
	if err := a.CheckBalanced(); err != nil {
		t.Fatal(err)
	}
}

// TestScanPipelinedSteadyStateAllocs pins the arena contract end to end:
// scanning more chunks must not allocate more. Per-call setup (goroutines,
// channels, borrowing sessions) is constant, so the alloc delta between a short and a
// long stream, normalized per extra chunk, must be ~zero. The strict
// zero-allocs/op proof is BenchmarkScanReader, where setup amortizes away.
func TestScanPipelinedSteadyStateAllocs(t *testing.T) {
	eng := MustCompile([]string{"cat|dog"}, &Options{CTAs: 1, Threads: 32})
	unit := []byte(strings.Repeat("the cat sat on the dog ", 180)) // ~4KB ≈ one chunk
	const chunk = 4096
	// A scan that finds the engine's session pool short builds a session:
	// set-up, not the chunk loop, and TestScanReaderBorrowsPooledSessions'
	// subject. The pool is taken out of the figure rather than averaged or
	// minimised away: no GC cycle empties it, and it is stocked with more
	// warmed-up sessions than the scans below can lose (under the race
	// detector sync.Pool drops one Put in four on purpose).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var stock []*engine.ScanSession
	for len(stock) < 32 {
		ss, err := eng.inner.GetSession(nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.Scan(context.Background(), unit, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
		stock = append(stock, ss)
	}
	for _, ss := range stock {
		eng.inner.PutSession(ss)
	}
	allocsFor := func(chunks int) float64 {
		data := bytes.Repeat(unit, chunks)
		return testing.AllocsPerRun(5, func() {
			n := 0
			if err := eng.ScanReader(bytes.NewReader(data), chunk, func(Match) { n++ }); err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("no matches")
			}
		})
	}
	short, long := allocsFor(4), allocsFor(24)
	perChunk := (long - short) / 20
	// Allow a sliver of slack: under the race detector the arena's sync.Pool
	// classes lose a buffer now and then and refill.
	if perChunk > 2 {
		t.Fatalf("pipelined scan allocates %.1f per steady-state chunk (short=%v long=%v), want ~0",
			perChunk, short, long)
	}
}

// TestScanPipelinedMatchesSequential streams a word corpus at chunk sizes
// hugging the overlap boundary, where carried prefixes are nearly whole
// chunks, and at steady-state ones: maxLen is 9, so the extra chunks are
// maxLen+2, 2*maxLen-1, 2*maxLen, 97, 1024 and three random sizes.
func TestScanPipelinedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	words := []string{"fox", "dog", "quik", "quxyzk", "lazy", "l zy", "0123", "0999", "xx", " ", "quak"}
	var sb strings.Builder
	for sb.Len() < 20_000 {
		sb.WriteString(words[rng.Intn(len(words))])
	}
	extra := []int{2, 8, 9, 88, 1015, 1 + rng.Intn(300), 1 + rng.Intn(300), 1 + rng.Intn(300)}
	c := &conformance{t: t}
	c.set("as given", corpus{patterns: []string{"fox|dog", "qu[a-z]{2,6}k", "l.zy", "0\\d{3}"}, input: []byte(sb.String()),
		opts: &Options{CTAs: 2, Threads: 64}, extra: extra})
	if c.straddled == 0 {
		t.Fatal("degenerate corpus: no match straddles a chunk boundary")
	}
}

// TestSignatureSetEntryPointsEqualNFA runs the repo benchmark's signature set —
// 168 literal-heavy bounded patterns whose groups are guard-cut shift batches,
// most outputs matchless — through the harness's cells, every later call on
// sessions an earlier one returned to the pool.
func TestSignatureSetEntryPointsEqualNFA(t *testing.T) {
	app, err := workload.Load("Yara", workload.Options{RegexScale: 0.05, InputBytes: 8 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	(&conformance{t: t}).row(corpus{patterns: app.Patterns, input: app.Input})
}

// TestScanWorkersOption pins that Options.ScanWorkers reaches the scanner
// and that any worker count streams the reference's matches.
func TestScanWorkersOption(t *testing.T) {
	input := []byte(strings.Repeat("a cat, a dog. ", 2000))
	want := reference(t, []string{"cat|dog"}, input)
	for _, workers := range []int{0, 1, 2, 8} {
		eng := MustCompile([]string{"cat|dog"}, &Options{CTAs: 1, Threads: 32, ScanWorkers: workers})
		if eng.scanWorkers != workers {
			t.Fatalf("scanWorkers = %d, want %d", eng.scanWorkers, workers)
		}
		var got []Match
		if err := eng.ScanReader(bytes.NewReader(input), 1024, func(m Match) { got = append(got, m) }); err != nil {
			t.Fatal(err)
		}
		same(t, fmt.Sprintf("workers %d", workers), got, want)
	}
}

// straddleCorpus returns patterns (one duplicated, so Index fan-out is
// exercised) and an input of 5*units bytes so dense that some match starts
// before and ends at or after every byte offset: whatever the chunk size,
// every chunk boundary is straddled.
func straddleCorpus(units int) ([]string, []byte) {
	return []string{"abcde", "c.e", "abcde", "e[ab]{1,3}"}, []byte(strings.Repeat("abcde", units))
}

// TestScanReaderLadderMatchesRunAcrossChunkSizes streams the straddle corpus,
// three 4099-byte chunks and a bit, on every backend pin, worker count and
// chunk size; at the smallest legal chunk (maxLen is 5), 64 and 4099 bytes
// every chunk boundary must be straddled.
func TestScanReaderLadderMatchesRunAcrossChunkSizes(t *testing.T) {
	patterns, input := straddleCorpus(2463)
	want := reference(t, patterns, input)
	for _, chunk := range []int{6, 64, 4099} {
		if n, all := straddles(want, chunk), (len(input)-1)/chunk; n != all {
			t.Fatalf("chunk %d: %d of the %d boundaries straddled", chunk, n, all)
		}
	}
	(&conformance{t: t}).row(corpus{patterns: patterns, input: input, opts: &Options{CTAs: 2, Threads: 64}, wide: true})
}

// TestScanReaderLadderStopsAtFirstFailingChunk pins first-failure semantics
// on an engine with one worker: no chunk past the failing one may reach
// the engine. Every launch from chunk j's on fails, so the scan must end with
// chunk j's error after exactly j+1 launches — although the reader has chunks
// j+1 and j+2 queued by then — having emitted every match that ends before
// chunk j's fresh bytes and nothing else.
func TestScanReaderLadderStopsAtFirstFailingChunk(t *testing.T) {
	const chunk, j = 64, 5
	patterns, input := straddleCorpus(154) // 13 chunks
	eng, err := Compile(patterns, &Options{
		CTAs: 1, Threads: 64, ScanWorkers: 1, // one group: one launch per chunk
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	before := 0
	for before < len(want.Matches) && want.Matches[before].End < j*chunk {
		before++
	}
	inj := faultinject.New(1).Arm(faultinject.LaunchFail, faultinject.Spec{Nth: j + 1, Repeat: true})
	eng.inner = eng.inner.WithInjector(inj)
	a := &arena.Arena{}
	eng.scanArena = a

	var got []Match
	err = eng.ScanReader(bytes.NewReader(input), chunk, func(m Match) { got = append(got, m) })
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) || fe.Hit != j+1 {
		t.Fatalf("err = %v, want the launch failure of chunk %d (hit %d)", err, j, j+1)
	}
	if hits := inj.Hits(faultinject.LaunchFail); hits != j+1 {
		t.Fatalf("%d launches, want %d: no chunk after the failing one may reach the engine", hits, j+1)
	}
	if !reflect.DeepEqual(got, want.Matches[:before]) {
		t.Fatalf("emitted %d matches, want exactly the %d ending before offset %d", len(got), before, j*chunk)
	}
	if err := a.CheckBalanced(); err != nil {
		t.Fatal(err)
	}
}
