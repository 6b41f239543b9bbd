package gpusim

import "testing"

func TestDeviceProfiles(t *testing.T) {
	if len(Devices()) != 3 {
		t.Fatalf("Devices() = %d entries", len(Devices()))
	}
	// Paper Section 8.3: integer throughput ratio ~ 1 : 1.9 : 2.6.
	r1 := H100.TIOPS / RTX3090.TIOPS
	r2 := L40S.TIOPS / RTX3090.TIOPS
	if r1 < 1.8 || r1 > 2.0 || r2 < 2.4 || r2 > 2.7 {
		t.Fatalf("TIOPS ratios = %.2f, %.2f; want ~1.9, ~2.6", r1, r2)
	}
	if _, err := DeviceByName("RTX 3090"); err != nil {
		t.Fatal(err)
	}
	if _, err := DeviceByName("nope"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestDefaultGridMatchesPaperIterationCount(t *testing.T) {
	g := DefaultGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1 MB input (one stream bit per byte) over the default block size
	// should take ~61-64 block iterations (Table 5 reports ~62).
	iters := (1_000_000 + g.BlockBits() - 1) / g.BlockBits()
	if iters < 58 || iters > 66 {
		t.Fatalf("1MB takes %d block iterations, want ~62", iters)
	}
	if g.BlockBits() != 16384 {
		t.Fatalf("default block = %d bits, want 16384 (the Section 8.2 overlap limit)", g.BlockBits())
	}
}

func TestGridValidate(t *testing.T) {
	bad := []Grid{
		{CTAs: 0, Threads: 1, UnitBits: 32, UnitsPerThread: 1},
		{CTAs: 1, Threads: 0, UnitBits: 32, UnitsPerThread: 1},
		{CTAs: 1, Threads: 2048, UnitBits: 32, UnitsPerThread: 1},
		{CTAs: 1, Threads: 1, UnitBits: 16, UnitsPerThread: 1},
		{CTAs: 1, Threads: 1, UnitBits: 32, UnitsPerThread: 0},
		{CTAs: 1, Threads: 1, UnitBits: 32, UnitsPerThread: 1}, // 32 bits: not mult of 64
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, g)
		}
	}
	good := Grid{CTAs: 4, Threads: 64, UnitBits: 32, UnitsPerThread: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

func TestStatsAddAndMean(t *testing.T) {
	ks := &KernelStats{PerCTA: []CTAStats{
		{UnitOps: 100, Barriers: 4, DynDeltaMax: 7, DRAMReadBytes: 10},
		{UnitOps: 300, Barriers: 2, DynDeltaMax: 3, DRAMReadBytes: 30},
	}}
	tot := ks.Total()
	if tot.UnitOps != 400 || tot.Barriers != 6 || tot.DynDeltaMax != 7 {
		t.Fatalf("Total = %+v", tot)
	}
}

func TestRecomputePercent(t *testing.T) {
	s := CTAStats{CommittedBits: 1000, RecomputedBits: 21}
	if got := s.RecomputePercent(); got < 2.09 || got > 2.11 {
		t.Fatalf("RecomputePercent = %v", got)
	}
	var zero CTAStats
	if zero.RecomputePercent() != 0 {
		t.Fatal("zero stats must report 0%")
	}
}

func TestEstimateTimeScalesWithWork(t *testing.T) {
	g := DefaultGrid()
	small := &KernelStats{PerCTA: []CTAStats{{UnitOps: 1e6}}, InputBytes: 1e6}
	big := &KernelStats{PerCTA: []CTAStats{{UnitOps: 1e8}}, InputBytes: 1e6}
	ts := EstimateTime(RTX3090, g, small)
	tb := EstimateTime(RTX3090, g, big)
	if tb.TotalSec <= ts.TotalSec {
		t.Fatalf("100x ops not slower: %v vs %v", tb.TotalSec, ts.TotalSec)
	}
	ratio := tb.TotalSec / ts.TotalSec
	if ratio < 50 || ratio > 150 {
		t.Fatalf("compute scaling ratio = %.1f, want ~100", ratio)
	}
}

func TestEstimateTimeComputeBoundTracksTIOPS(t *testing.T) {
	// A compute-bound kernel should speed up across devices roughly by the
	// integer-throughput ratio (Figure 15's observation for BitGen).
	g := DefaultGrid()
	per := make([]CTAStats, 256)
	for i := range per {
		per[i] = CTAStats{UnitOps: 5e7}
	}
	ks := &KernelStats{PerCTA: per, InputBytes: 1e6}
	t3090 := EstimateTime(RTX3090, g, ks).TotalSec
	tL40S := EstimateTime(L40S, g, ks).TotalSec
	speedup := t3090 / tL40S
	want := L40S.TIOPS / RTX3090.TIOPS // ~2.6 modulo SM-count rounding
	if speedup < want*0.5 || speedup > want*1.6 {
		t.Fatalf("L40S speedup = %.2f, want near %.2f", speedup, want)
	}
}

func TestEstimateTimeMemoryBound(t *testing.T) {
	// A kernel moving far more DRAM bytes than compute must be bound by
	// bandwidth.
	g := DefaultGrid()
	ks := &KernelStats{PerCTA: []CTAStats{{DRAMReadBytes: 1 << 33}}, InputBytes: 1e6}
	tb := EstimateTime(RTX3090, g, ks)
	if tb.TotalSec < tb.DRAMSec*0.99 {
		t.Fatalf("total %.6f below DRAM time %.6f", tb.TotalSec, tb.DRAMSec)
	}
}

func TestBarrierStallPercent(t *testing.T) {
	g := DefaultGrid()
	ks := &KernelStats{PerCTA: []CTAStats{{UnitOps: 1e6, Barriers: 1e5}}, InputBytes: 1e6}
	tb := EstimateTime(RTX3090, g, ks)
	if tb.BarrierStallPercent <= 0 || tb.BarrierStallPercent >= 100 {
		t.Fatalf("BarrierStallPercent = %v", tb.BarrierStallPercent)
	}
}

func TestThroughputMBs(t *testing.T) {
	if got := ThroughputMBs(2_000_000, 2.0); got != 1.0 {
		t.Fatalf("ThroughputMBs = %v, want 1.0", got)
	}
	if ThroughputMBs(1, 0) != 0 {
		t.Fatal("zero time must give zero throughput")
	}
}

func TestIntermediateFootprint(t *testing.T) {
	// 318 intermediate streams over 1 MB input: ~40 MB of temporaries per
	// CTA; across 256 CTAs that is ~10 GB (the Section 3.2 blow-up).
	perCTA := IntermediateFootprintBytes(318, 1_000_000)
	if perCTA < 35_000_000 || perCTA > 45_000_000 {
		t.Fatalf("footprint = %d", perCTA)
	}
}

func TestTransposeCostMatchesPaperMeasurement(t *testing.T) {
	// Section 7: "transposing 1 MB on an RTX 3090 typically takes about
	// 0.026 ms". Our model charges the transpose's in+out traffic at the
	// kernel's achieved (bit-shuffle-bound) bandwidth.
	ks := &KernelStats{
		PerCTA:         []CTAStats{{}},
		InputBytes:     1_000_000,
		TransposeBytes: 2_000_000,
	}
	tb := EstimateTime(RTX3090, DefaultGrid(), ks)
	ms := tb.TotalSec * 1e3
	if ms < 0.01 || ms > 0.12 {
		t.Fatalf("1MB transpose modeled at %.4f ms, want ~0.026-0.06", ms)
	}
}
