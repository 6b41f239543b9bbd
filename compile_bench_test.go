package bitgen

import (
	"fmt"
	"runtime"
	"testing"

	"bitgen/internal/charclass"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/passes"
	"bitgen/internal/workload"
)

var megasetOpts = &Options{Limits: Limits{MaxPatterns: -1}}

// BenchmarkCompileMegaset is the repo benchmark's compile_megaset op as a Go
// benchmark: compile a ClamAV-class signature megaset, snapshot it, load the
// snapshot and serve a first scan from the loaded engine. /500 is the
// benchmark's own size (256 groups of ~2 patterns); /10000 packs ~39
// patterns into every group, the regime where per-group pass cost shows.
// `make profile-compile` profiles /500; bytes are pattern bytes.
func BenchmarkCompileMegaset(b *testing.B) {
	for _, n := range []int{500, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			app, err := workload.Megaset(n, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			var size int64
			for _, p := range app.Patterns {
				size += int64(len(p))
			}
			b.SetBytes(size)
			b.ReportAllocs()
			gc := startGCCount(b)
			for i := 0; i < b.N; i++ {
				if err := megasetCycle(app); err != nil {
					b.Fatal(err)
				}
			}
			gc.report(b)
		})
	}
}

// megasetCycle is one compile_megaset op: compile, snapshot, load, first Run.
func megasetCycle(app *workload.App) error {
	eng, err := Compile(app.Patterns, megasetOpts)
	if err != nil {
		return err
	}
	loaded, err := DecodeEngine(EncodeEngine(eng), megasetOpts)
	if err != nil {
		return err
	}
	_, err = loaded.Run(app.Input)
	return err
}

// gcCount reports collector cycles per op, the gc/op column beside B/op and
// allocs/op: malloc time follows the objects a benchmark allocates, the
// cycles the collector runs follow its bytes.
type gcCount uint32

// startGCCount resets b's timer and notes the collector cycles so far.
func startGCCount(b *testing.B) gcCount {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ResetTimer()
	return gcCount(ms.NumGC)
}

func (c gcCount) report(b *testing.B) {
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.NumGC-uint32(c))/float64(b.N), "gc/op")
}

// BenchmarkCompileSigs is what the repo benchmark's setup_s times on
// stream_sigs: a cold Compile of the 168-signature Yara-style set plus the
// first 256 KiB ScanReader, which builds the scan sessions and compiles every
// group's superblocks. `make profile-compile BENCH=CompileSigs` profiles it.
func BenchmarkCompileSigs(b *testing.B) {
	op := compileAndFirstScanSigs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

func compileAndFirstScanSigs(tb testing.TB) func() error {
	app, err := workload.Load("Yara", workload.Options{RegexScale: 0.05, InputBytes: 128 << 10, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return func() error {
		eng, err := Compile(app.Patterns, nil)
		if err != nil {
			return err
		}
		return eng.ScanReader(&chunkSource{data: app.Input, limit: 256 << 10}, 0, func(Match) {})
	}
}

// BenchmarkRebalance is Shift Rebalancing alone over the programs Compile
// lowers for the 168-signature Yara set and the 500-signature megaset: one op
// rebalances every group of one compile, each a clone made outside the timer.
// `make profile-compile BENCH=Rebalance` profiles it.
func BenchmarkRebalance(b *testing.B) {
	yara, err := workload.Load("Yara", workload.Options{RegexScale: 0.05, InputBytes: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	mega, err := workload.Megaset(500, 1, 64)
	if err != nil {
		b.Fatal(err)
	}
	for _, set := range []struct {
		name string
		app  *workload.App
		opts *Options
	}{{"Yara168", yara, nil}, {"Megaset500", mega, megasetOpts}} {
		b.Run(set.name, func(b *testing.B) {
			progs := loweredGroups(b, set.app, set.opts)
			clones := make([]*ir.Program, len(progs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, p := range progs {
					clones[j] = p.Clone()
				}
				b.StartTimer()
				for _, p := range clones {
					passes.Rebalance(p, passes.RebalanceOptions{})
				}
			}
		})
	}
}

// loweredGroups returns the programs Compile lowers for app's patterns, one
// per CTA group, before any pass: the groups' patterns and shared classes
// are read back from a compiled engine.
func loweredGroups(tb testing.TB, app *workload.App, opts *Options) []*ir.Program {
	eng, err := Compile(app.Patterns, opts)
	if err != nil {
		tb.Fatal(err)
	}
	byName := make(map[string]lower.Regex, len(app.Regexes))
	for _, r := range app.Regexes {
		byName[r.Name] = r
	}
	var parts [][]lower.Regex
	for _, g := range eng.inner.Groups() {
		var part []lower.Regex
		for _, name := range g.Names {
			part = append(part, byName[name])
		}
		parts = append(parts, part)
	}
	slots := map[charclass.Class]int{}
	for i, cl := range eng.inner.SharedClasses() {
		slots[cl] = i
	}
	progs := make([]*ir.Program, len(parts))
	for i, part := range parts {
		if progs[i], err = lower.Group(part, lower.Options{SharedCC: slots, SharedExtBits: len(slots)}); err != nil {
			tb.Fatal(err)
		}
	}
	return progs
}

// BenchmarkLoadAndFirstRun is the load half of BenchmarkCompileMegaset/500:
// decode the snapshot and serve the loaded engine's first Run, which builds
// its session — every group's kernel compiled, one executor per worker.
// Compile and EncodeEngine stay outside the timer.
func BenchmarkLoadAndFirstRun(b *testing.B) {
	op := loadAndFirstRunMegaset(b)
	b.ReportAllocs()
	gc := startGCCount(b)
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	gc.report(b)
}

func loadAndFirstRunMegaset(tb testing.TB) func() error {
	app, err := workload.Megaset(500, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := Compile(app.Patterns, megasetOpts)
	if err != nil {
		tb.Fatal(err)
	}
	blob := EncodeEngine(eng)
	return func() error {
		loaded, err := DecodeEngine(blob, megasetOpts)
		if err != nil {
			return err
		}
		_, err = loaded.Run(app.Input)
		return err
	}
}

// TestCompileMegasetAllocationBudget is the allocation gate on the compile
// path: one Compile of the benchmark's 500-signature megaset keeps ~0.5 MB
// and may allocate at most 24 MB on the way, in at most 17 collector cycles:
// a quarter above the 16.6–19.0 MB it measures under the race detector, the
// costlier of the two modes the suite runs in (its sync.Pool drops a quarter
// of the pooled scratch), where it takes 8–10 cycles (4.4 MB in 20 k objects
// and 1–2 cycles without). Before: 4.8 MB in 53 k objects while expressions
// were boxed; 22.1–23.1 MB and 15–17 cycles under the race
// detector, 14.4 MB in 137 k objects and 7–8 cycles without, until the ASTs
// were simplified once, the merge, zero-path and loop analyses ran on pooled
// scratch and lowering allocated its statements in blocks; 19.3 MB in 381 k
// before Rebalance ran its rounds on pointer-free records and ZeroPaths built
// its chains in one array; 23.9 MB before Rebalance stopped re-walking its
// orphans and left a dense variable space behind; 105 MB in 552 k objects and
// 42–58 cycles before the passes reused their scratch across rounds and
// groups.
func TestCompileMegasetAllocationBudget(t *testing.T) {
	app, err := workload.Megaset(500, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocationBudget(t, "Compile(Megaset 500)", 24e6, 17, func() error {
		_, err := Compile(app.Patterns, megasetOpts)
		return err
	})
}

// TestCompileSigsAllocationBudget is the same gate on BenchmarkCompileSigs's
// op: the compile, then the first scan's session — each group's kernel
// compiled once, one executor for the worker's every group. It measures
// 10.3–10.9 MB in 17 k objects (27.4–30.0 MB under the race detector, hence
// 39) where it measured 11.2–11.7 MB in 45 k while expressions were boxed,
// 18.5 MB in 118 k until lowering and decoding took
// statements from blocks and the passes' analyses ran on pooled scratch,
// 28.4 MB in 621 k before Rebalance ran its rounds on
// pointer-free records, 55.9 MB in 714 k when every group had an executor of
// its own — five tables and a register file sized by its program's NumVars —
// and 123.5 MB in 1 416 k before the variable space was dense. Its cycle count
// follows the heap the tests before it left — 2 to 7, 6 to 28 under the race
// detector — so that bound is loose.
func TestCompileSigsAllocationBudget(t *testing.T) {
	allocationBudget(t, "Compile+first scan(Yara 168)", 39e6, 35, compileAndFirstScanSigs(t))
}

// TestLoadAndFirstRunAllocationBudget is the gate on BenchmarkLoadAndFirstRun's
// op: loading the megaset's snapshot, which decodes every group once and
// compiles its kernel into the session that seeds the pool, then the first
// Run on one executor per worker. It measures 8.7 MB in 11 k objects and 1–2
// cycles; under the race detector 9.7–9.9 MB in 1–3 cycles (16.1 MB while a
// sync.Pool held the seeded session and could drop it, the Run then building
// its own), hence 21 MB and 5 cycles. Before: 8.9 MB in 28 k objects while
// expressions were boxed; 11.4 MB in 72 k objects,
// 19.5 MB under the race detector, until the decoder took a program's
// statements from one block per kind; 36.3 MB when the Run decoded every
// group again and gave each an executor of its own.
func TestLoadAndFirstRunAllocationBudget(t *testing.T) {
	allocationBudget(t, "DecodeEngine+first Run(Megaset 500)", 21e6, 5, loadAndFirstRunMegaset(t))
}

// TestMegasetCycleAllocationBudget is the gate on the whole compile_megaset
// op, BenchmarkCompileMegaset/500's: Compile, EncodeEngine, DecodeEngine and
// the loaded engine's first Run. It measures 13.7 MB in 31 k objects and 3–4
// cycles (1–2 while dead engines' sessions stayed live in a sync.Pool); under
// the race detector 27.5–28.4 MB in 8–9 cycles, hence 44 MB and 17 cycles.
// It allocated 14.0 MB in 82 k objects while expressions were boxed, and
// 26.3 MB in 200 k objects before the
// ASTs were simplified once, the passes and analyses ran on pooled scratch,
// the encoders wrote into buffers sized once and the builder and the decoder
// allocated statements in blocks.
func TestMegasetCycleAllocationBudget(t *testing.T) {
	app, err := workload.Megaset(500, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocationBudget(t, "Compile+snapshot+load+first Run(Megaset 500)", 44e6, 17, func() error {
		return megasetCycle(app)
	})
}

// allocationBudget runs op twice — the first warms the pooled pass scratch —
// and fails when the second allocates more than maxBytes or runs more than
// maxCycles collector cycles.
func allocationBudget(t *testing.T, name string, maxBytes uint64, maxCycles uint32, op func() error) {
	t.Helper()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := op(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc, objs, cycles := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs, after.NumGC-before.NumGC
	t.Logf("%s: %.1f MB in %d objects, %d GC cycles", name, float64(alloc)/1e6, objs, cycles)
	if alloc > maxBytes {
		t.Errorf("%s allocated %.1f MB, budget %.0f MB", name, float64(alloc)/1e6, float64(maxBytes)/1e6)
	}
	if cycles > maxCycles {
		t.Errorf("%s ran %d GC cycles, budget %d", name, cycles, maxCycles)
	}
}
