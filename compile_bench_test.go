package bitgen

import (
	"fmt"
	"runtime"
	"testing"

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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := Compile(app.Patterns, megasetOpts)
				if err != nil {
					b.Fatal(err)
				}
				loaded, err := DecodeEngine(EncodeEngine(eng), megasetOpts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := loaded.Run(app.Input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCompileMegasetAllocationBudget is the allocation gate on the compile
// path: one Compile of the benchmark's 500-signature megaset keeps ~0.5 MB
// and may allocate at most 45 MB on the way, in at most 25 collector cycles.
// Before the passes reused their scratch across rounds and groups it
// allocated 105 MB in 552 k objects and ran 42–58 cycles. The first compile
// warms the pooled scratch; the second is measured.
func TestCompileMegasetAllocationBudget(t *testing.T) {
	app, err := workload.Megaset(500, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(app.Patterns, megasetOpts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Compile(app.Patterns, megasetOpts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc, objs, cycles := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs, after.NumGC-before.NumGC
	t.Logf("Compile(Megaset 500): %.1f MB in %d objects, %d GC cycles", float64(alloc)/1e6, objs, cycles)
	if alloc > 45e6 {
		t.Errorf("one 500-pattern Compile allocated %.1f MB, budget 45 MB", float64(alloc)/1e6)
	}
	if cycles > 25 {
		t.Errorf("one 500-pattern Compile ran %d GC cycles, budget 25", cycles)
	}
}
