package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"bitgen"
	"bitgen/internal/experiments"
	"bitgen/internal/transpose"
)

// The bench artifact measures the host-side substrate hot paths — transpose,
// single-shot Run, and the pipelined streaming scanner — as MB/s plus
// allocs/op, the numbers the streaming-pipeline work is accountable to.
// Unlike the table/figure artifacts it reports real wall-clock throughput of
// the simulator process, not modeled GPU time.

var benchPatterns = []string{"fox|dog", "qu[a-z]{2,6}k", "l.zy", "0\\d{3}"}

// benchRow is one measured hot path.
type benchRow struct {
	Name     string  `json:"name"`
	MBs      float64 `json:"mb_per_s"`
	NsPerOp  int64   `json:"ns_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	BytesOp  int64   `json:"bytes_per_op"`
	Note     string  `json:"note,omitempty"`
}

// benchReport is the BENCH_scan artifact.
type benchReport struct {
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Rows       []benchRow `json:"benchmarks"`
}

func row(name, note string, bytesPerOp int64, fn func(b *testing.B)) benchRow {
	r := testing.Benchmark(fn)
	mbs := 0.0
	if ns := r.NsPerOp(); ns > 0 {
		mbs = float64(bytesPerOp) / 1e6 / (float64(ns) / 1e9)
	}
	return benchRow{
		Name: name, Note: note,
		MBs:      mbs,
		NsPerOp:  r.NsPerOp(),
		AllocsOp: r.AllocsPerOp(),
		BytesOp:  r.AllocedBytesPerOp(),
	}
}

// chunkSource feeds a benchmark exactly limit bytes by repeating data,
// without materializing the whole stream.
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

func runBench(benchTime string, minScanMBs float64) (experiments.Artifact, error) {
	// Long enough runs that per-call setup (sessions, channels) amortizes to
	// zero and allocs/op reports the steady-state loop. CI smoke runs pass a
	// short -bench-time; the default favors stable numbers.
	testing.Init()
	if benchTime == "" {
		benchTime = "3s"
	}
	if err := flag.Set("test.benchtime", benchTime); err != nil {
		return nil, err
	}
	input := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog 0123456789 ", 2000))
	eng, err := bitgen.Compile(benchPatterns, &bitgen.Options{CTAs: 4})
	if err != nil {
		return nil, err
	}
	const chunk = 256 << 10

	rep := &benchReport{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0)}

	rep.Rows = append(rep.Rows, row("transpose", "byte-parallel S2P into fresh basis",
		int64(len(input)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				transpose.Transpose(input)
			}
		}))
	rep.Rows = append(rep.Rows, row("transpose_into", "S2P reusing a caller basis (scan hot path)",
		int64(len(input)), func(b *testing.B) {
			var basis transpose.Basis
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				transpose.TransposeInto(&basis, input)
			}
		}))
	rep.Rows = append(rep.Rows, row("run_single_shot", "Engine.Run host wall-clock, whole input",
		int64(len(input)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(input); err != nil {
					b.Fatal(err)
				}
			}
		}))
	rep.Rows = append(rep.Rows, row("scanreader_pipelined", "streaming scan, one op = one 256KiB chunk",
		chunk, func(b *testing.B) {
			src := &chunkSource{data: input, limit: int64(b.N) * chunk}
			b.ReportAllocs()
			b.ResetTimer()
			if err := eng.ScanReader(src, chunk, func(bitgen.Match) {}); err != nil {
				b.Fatal(err)
			}
		}))

	// Multicore matrix: GOMAXPROCS x pipeline workers. Scaling beyond the
	// host's real core count is necessarily flat — each row's note records
	// the host cores so artifacts from narrow CI hosts read honestly.
	cores := runtime.NumCPU()
	prev := runtime.GOMAXPROCS(0)
	for _, g := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(g)
		for _, w := range []int{1, 2, 4} {
			weng, err := bitgen.Compile(benchPatterns, &bitgen.Options{CTAs: 4, ScanWorkers: w})
			if err != nil {
				runtime.GOMAXPROCS(prev)
				return nil, err
			}
			rep.Rows = append(rep.Rows, row(
				fmt.Sprintf("scan_g%d_w%d", g, w),
				fmt.Sprintf("pipelined scan, GOMAXPROCS=%d workers=%d (host cores=%d)", g, w, cores),
				chunk, func(b *testing.B) {
					src := &chunkSource{data: input, limit: int64(b.N) * chunk}
					b.ReportAllocs()
					b.ResetTimer()
					if err := weng.ScanReader(src, chunk, func(bitgen.Match) {}); err != nil {
						b.Fatal(err)
					}
				}))
		}
	}
	runtime.GOMAXPROCS(prev)

	// Throughput regression gate (make bench-smoke): the pipelined scanner
	// must not fall back under the recorded baseline.
	if minScanMBs > 0 {
		for _, r := range rep.Rows {
			if r.Name == "scanreader_pipelined" && r.MBs < minScanMBs {
				return nil, fmt.Errorf("scanreader_pipelined %.2f MB/s is below the %.2f MB/s floor",
					r.MBs, minScanMBs)
			}
		}
	}
	return rep, nil
}

func (r *benchReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "host substrate hot paths (%s/%s, GOMAXPROCS=%d)\n",
		r.GOOS, r.GOARCH, r.GOMAXPROCS)
	fmt.Fprintf(&b, "%-28s %10s %14s %12s %14s\n", "benchmark", "MB/s", "ns/op", "allocs/op", "bytes/op")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %10.2f %14d %12d %14d\n",
			row.Name, row.MBs, row.NsPerOp, row.AllocsOp, row.BytesOp)
	}
	return b.String()
}

func (r *benchReport) CSV() string {
	var b strings.Builder
	b.WriteString("benchmark,mb_per_s,ns_per_op,allocs_per_op,bytes_per_op\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%.2f,%d,%d,%d\n", row.Name, row.MBs, row.NsPerOp, row.AllocsOp, row.BytesOp)
	}
	return b.String()
}

func (r *benchReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
