package bitgen

import (
	"io"
	"testing"

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

// BenchmarkScanReader measures the pipelined streaming scanner. One op is
// one 256KiB chunk, so per-call setup (sessions, channels, goroutines)
// amortizes over b.N and allocs/op reports the steady-state chunk loop —
// which must be zero.
func BenchmarkScanReader(b *testing.B) {
	eng := MustCompile(scanBenchPatterns, &Options{CTAs: 4})
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
// cyclically, default options. The kernel layer is >99 % of it, so
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

// BenchmarkRunControl is the repo benchmark's oneshot_control op as a Go
// benchmark: one Engine.Run of the Brill-style set (92 unbounded, while-heavy
// patterns ScanReader refuses) over its generated 128 KiB input, default
// options, the session pool warm. Most windows are re-executed by the
// saturation probe (DESIGN §6), so `make profile-control` reads real pass,
// probe pass and probe bookkeeping off runWindowToFixpoint's listing.
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
