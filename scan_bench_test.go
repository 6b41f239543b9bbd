package bitgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/engine"
	"bitgen/internal/workload"
)

// chunkSource serves an endless repetition of data capped at limit bytes —
// a zero-allocation way to feed a benchmark exactly b.N chunks without
// materializing gigabytes.
type chunkSource struct {
	data  []byte
	pos   int
	limit int64
}

func (r *chunkSource) Read(p []byte) (int, error) {
	if r.limit <= 0 {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	if int64(n) > r.limit {
		n = int(r.limit)
	}
	r.pos += n
	if r.pos == len(r.data) {
		r.pos = 0
	}
	r.limit -= int64(n)
	return n, nil
}

var scanBenchPatterns = []string{"fox|dog", "qu[a-z]{2,6}k", "l.zy", "0\\d{3}"}

// BenchmarkScanReader measures the pipelined streaming scanner at its
// default worker count. One op is one 256KiB chunk, so per-call setup
// (sessions, channels, goroutines) is spread over b.N and allocs/op only
// tends to zero as b.N grows: 5–13 allocs/op at 100 ms, 0 at 3 s.
// TestScanPipelinedSteadyStateAllocs is the check that the chunk loop
// itself allocates nothing. `make bench-smoke` holds its MB/s at or above
// 54.1, the pre-superblock baseline.
func BenchmarkScanReader(b *testing.B) {
	eng := MustCompile(scanBenchPatterns, &Options{ctas: 4})
	const chunk = 256 << 10
	src := &chunkSource{data: benchInput, limit: int64(b.N) * chunk}
	matches := 0
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.ScanReader(src, chunk, func(Match) { matches++ }); err != nil {
		b.Fatal(err)
	}
	if matches == 0 {
		b.Fatal("no matches")
	}
}

// BenchmarkScanReaderSigs is the repo benchmark's stream_sigs op as a Go
// benchmark: the Yara-style signature set (168 shift/literal-heavy bounded
// patterns, sparse matches) over 4 MiB of its generated 128 KiB input served
// cyclically, default options. The kernel layer is most of it, so
//
//	go test -run '^$' -bench ScanReaderSigs -benchtime 15x -cpuprofile cpu.prof .
//
// gives the superblock executor's profile without a scratch main.
func BenchmarkScanReaderSigs(b *testing.B) {
	app, err := workload.Load("Yara", workload.Options{RegexScale: 0.05, InputBytes: 128 << 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng := MustCompile(app.Patterns, nil)
	const slice = 4 << 20
	b.SetBytes(slice)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := &chunkSource{data: app.Input, limit: slice}
		if err := eng.ScanReader(src, 0, func(Match) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanSessionChunkSize is the measurement behind DESIGN §17's
// window-major row: stream_sigs' signature set (Yara at scale 0.05) over its
// own 256 KiB input, scanned with ScanSession.Scan on one unpooled session
// (one worker) in chunks of 16 KiB — one kernel window per group, so each
// group's class loads and shifts run back to back with every other group's
// over the same 16 KiB — or of 256 KiB, sixteen windows per group. One op is
// the whole 256 KiB. Each size under its own CPU profile:
//
//	go test -run '^$' -bench 'ScanSessionChunkSize/16KiB' -benchtime 300x -cpuprofile cpu16.prof .
//	go tool pprof -top bitgen.test cpu16.prof | grep fusedShiftBin
func BenchmarkScanSessionChunkSize(b *testing.B) {
	app, err := workload.Load("Yara", workload.Options{RegexScale: 0.05, InputBytes: 256 << 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng := MustCompile(app.Patterns, nil)
	for _, chunk := range []int{16 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKiB", chunk>>10), func(b *testing.B) {
			ss, err := eng.inner.NewScanSession(chunk, &arena.Arena{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer ss.Close()
			var dst []engine.ScanMatch
			b.SetBytes(int64(len(app.Input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for at := 0; at < len(app.Input); at += chunk {
					if dst, err = ss.Scan(context.Background(), app.Input[at:at+chunk], int64(at), int64(at), dst[:0]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// lightLogBlock is the repo benchmark's stream_light input (its logText):
// seeded English-like log text in which about one word in four matches a
// scanBenchPattern — a match every ~16 bytes.
func lightLogBlock(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	plain := []string{"the", "brown", "jumps", "over", "request", "served", "cache", "miss", "user", "login",
		"from", "host", "session", "closed", "after", "retry", "worker", "queue", "flush", "done"}
	hot := []string{"fox", "dog", "quick", "quack", "lazy", "lizy", "quirk"}
	var b bytes.Buffer
	for b.Len() < n {
		fmt.Fprintf(&b, "%02d:%02d:%02d id=%04d ", rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(2500))
		for w, words := 0, 6+rng.Intn(8); w < words; w++ {
			if rng.Intn(3) == 0 {
				b.WriteString(hot[rng.Intn(len(hot))])
			} else {
				b.WriteString(plain[rng.Intn(len(plain))])
			}
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.Bytes()[:n]
}

// BenchmarkScanReaderLight is the repo benchmark's stream_light op as a Go
// benchmark: the four log-grep patterns over 32 MiB of a 128 KiB log block
// served cyclically, default options. The kernel is under half of it — the
// S2P transpose, the match collector and the emit stage are the rest — so
// `make profile-light` is the host layers' profile.
func BenchmarkScanReaderLight(b *testing.B) {
	eng := MustCompile(scanBenchPatterns, nil)
	block := lightLogBlock(1, 128<<10)
	const slice = 32 << 20
	matches := 0
	b.SetBytes(slice)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := &chunkSource{data: block, limit: slice}
		if err := eng.ScanReader(src, 0, func(Match) { matches++ }); err != nil {
			b.Fatal(err)
		}
	}
	if matches == 0 {
		b.Fatal("no matches")
	}
}

// BenchmarkRunControl is the repo benchmark's oneshot_control op as a Go
// benchmark: one Engine.Run of the Brill-style set (92 unbounded, while-heavy
// patterns ScanReader refuses) over its generated 128 KiB input, default
// options, the session pool warm. Most windows are probed by the saturation
// probe (DESIGN §6), so `make profile-control` reads the real pass, the probe's
// suffix from the fork (Executor.probe) and the probe's bookkeeping
// (saveCommitted, probeAgrees) off runWindowToFixpoint's listing.
func BenchmarkRunControl(b *testing.B) {
	app, err := workload.Load("Brill", workload.Options{RegexScale: 0.05, InputBytes: 128 << 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng := MustCompile(app.Patterns, nil)
	if _, err := eng.Run(app.Input); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(app.Input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(app.Input); err != nil {
			b.Fatal(err)
		}
	}
}
