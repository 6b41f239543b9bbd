package gpusim

// CTAStats are the per-CTA event counters the kernel executors maintain —
// the same quantities Nsight Compute reports for the paper's Tables 4-6.
type CTAStats struct {
	// UnitOps counts W-bit integer operations executed by the CTA's
	// threads (bitwise ops, shifts, predicate reductions).
	UnitOps int64
	// DRAMReadBytes / DRAMWriteBytes are global-memory traffic.
	DRAMReadBytes  int64
	DRAMWriteBytes int64
	// SMemReadBytes / SMemWriteBytes are shared-memory traffic (shift
	// neighborhoods, condition reductions).
	SMemReadBytes  int64
	SMemWriteBytes int64
	// Barriers counts CTA-wide synchronizations.
	Barriers int64
	// ShiftBarriers counts the subset of barriers caused by SHIFT
	// instructions (the #Sync column of Table 6).
	ShiftBarriers int64
	// Loops is the number of separate block-wise loops executed
	// (the #Loop column of Table 4; 1 under full interleaving).
	Loops int64
	// IntermediateStreams is the number of temporary bitstreams
	// materialized in global memory (Table 4).
	IntermediateStreams int64
	// Windows is the number of block iterations executed.
	Windows int64
	// CommittedBits / RecomputedBits measure Dependency-Aware
	// Thread-Data Mapping overhead (Table 5): committed bits advance the
	// output; recomputed bits are overlap work.
	CommittedBits  int64
	RecomputedBits int64
	// DynDeltaSum / DynDeltaMax track the runtime (dynamic) overlap
	// distance beyond the static Δ, in bits, summed over windows and the
	// maximum seen.
	DynDeltaSum int64
	DynDeltaMax int64
	// StaticDelta echoes the compile-time Δ of the program run.
	StaticDelta int64
	// GuardSkips counts taken zero-block guards; GuardChecks counts
	// evaluated guards; SkippedStmts counts statements skipped.
	GuardSkips   int64
	GuardChecks  int64
	SkippedStmts int64
	// SMemPeakBytes is the high-water shared-memory footprint.
	SMemPeakBytes int64
	// WhileIterations counts loop-body executions across windows.
	WhileIterations int64
}

// Add accumulates other into s.
func (s *CTAStats) Add(other CTAStats) {
	s.UnitOps += other.UnitOps
	s.DRAMReadBytes += other.DRAMReadBytes
	s.DRAMWriteBytes += other.DRAMWriteBytes
	s.SMemReadBytes += other.SMemReadBytes
	s.SMemWriteBytes += other.SMemWriteBytes
	s.Barriers += other.Barriers
	s.ShiftBarriers += other.ShiftBarriers
	s.Loops += other.Loops
	s.IntermediateStreams += other.IntermediateStreams
	s.Windows += other.Windows
	s.CommittedBits += other.CommittedBits
	s.RecomputedBits += other.RecomputedBits
	s.DynDeltaSum += other.DynDeltaSum
	if other.DynDeltaMax > s.DynDeltaMax {
		s.DynDeltaMax = other.DynDeltaMax
	}
	if other.StaticDelta > s.StaticDelta {
		s.StaticDelta = other.StaticDelta
	}
	s.GuardSkips += other.GuardSkips
	s.GuardChecks += other.GuardChecks
	s.SkippedStmts += other.SkippedStmts
	if other.SMemPeakBytes > s.SMemPeakBytes {
		s.SMemPeakBytes = other.SMemPeakBytes
	}
	s.WhileIterations += other.WhileIterations
}

// RecomputePercent returns recomputed bits as a percentage of committed
// bits (Table 5's Recompute %).
func (s *CTAStats) RecomputePercent() float64 {
	if s.CommittedBits == 0 {
		return 0
	}
	return 100 * float64(s.RecomputedBits) / float64(s.CommittedBits)
}

// KernelStats aggregates a whole launch.
type KernelStats struct {
	// PerCTA holds each CTA's counters.
	PerCTA []CTAStats
	// InputBytes is the input stream length processed.
	InputBytes int64
	// TransposeBytes is the traffic of the preprocessing transpose kernel.
	TransposeBytes int64
}

// Total sums all CTAs.
func (k *KernelStats) Total() CTAStats {
	var t CTAStats
	for i := range k.PerCTA {
		t.Add(k.PerCTA[i])
	}
	return t
}
