package experiments

import "bitgen/internal/ir"

// CPU model for the icgrep analog: single-core SIMD bitstream execution on
// the paper's Xeon Platinum 8562Y+. One core sustains a fraction of the
// 512-bit integer pipelines on streaming bitwise kernels; the whole-stream
// working set spills to memory between instructions (the same poor-reuse
// property the paper attributes to sequential execution).
const (
	// cpuOpsPerSec is achieved 32-bit ops/second for one core running
	// bitstream loops (AVX-512: 16 lanes × 2 ports × ~3.4 GHz × ~35%
	// achieved).
	cpuOpsPerSec = 38e9
	// cpuStreamBytesPerSec is achieved single-core memory bandwidth for
	// the materialized intermediate streams.
	cpuStreamBytesPerSec = 18e9
)

// hsSIMDFactor maps the repo's interpreted Go hybrid engine to real
// Hyperscan's hand-tuned AVX-512 implementation (Teddy literal matching,
// SIMD NFA states): a fixed, documented multiplier applied to measured
// wall-clock throughput. Calibrated on the pure-literal workloads, where
// both engines do the same logical work (ExactMatch: our Aho-Corasick scan
// vs Hyperscan's ~3.3 GB/s in Table 2).
const hsSIMDFactor = 12.0

// hsNFAFactor is the smaller advantage real Hyperscan's SIMD Glushkov-NFA
// states hold over our bitset simulation on the general (unfilterable)
// path.
const hsNFAFactor = 3.0

// cpuBitstreamTime models icgrep's execution time from interpreter
// counters: compute and memory streaming overlap imperfectly, so the time
// is their maximum plus a 20% serialization tax.
func cpuBitstreamTime(st ir.ExecStats, inputBytes int) float64 {
	unitOps := float64(st.Instructions) * float64(inputBytes) / 32.0
	compute := unitOps / cpuOpsPerSec
	mem := float64(st.StreamBytesTouched) / cpuStreamBytesPerSec
	t := compute
	if mem > t {
		t = mem
	}
	return t * 1.2
}
