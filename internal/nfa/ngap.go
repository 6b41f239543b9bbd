package nfa

import "bitgen/internal/gpusim"

// NgAPModel holds the cost-model constants of the ngAP-style non-blocking
// GPU automata engine (the paper's main GPU baseline). ngAP's execution is
// dominated by *dependent, irregular memory accesses* (per-state transition
// fetches and memoization-table lookups) whose cost is DRAM latency, not
// bandwidth — which is why the paper observes essentially no benefit from
// H100's HBM3 and only a clock-rate benefit on L40S (Figure 15). The
// constants are calibrated once against Table 2's published ngAP
// throughputs and then held fixed across all experiments; see
// EXPERIMENTS.md.
type NgAPModel struct {
	// DRAMLatencySec is the latency of one irregular fetch.
	DRAMLatencySec float64
	// InFlight is the latency-hiding budget: concurrent irregular
	// accesses the engine keeps outstanding at the calibration clock.
	InFlight float64
	// ChunkSymbols is the worklist batch size; consecutive batches carry
	// a serial dependency.
	ChunkSymbols float64
	// ChunkLatencySec is the dependent-latency cost per batch when the
	// worklist cannot cover it.
	ChunkLatencySec float64
	// TargetFrontier is the average active-state count per symbol needed
	// to saturate the device; smaller frontiers leave it idle (the
	// paper's ClamAV observation: short worklists "fail to saturate GPU
	// resources").
	TargetFrontier float64
}

// DefaultNgAPModel returns the calibrated model.
func DefaultNgAPModel() NgAPModel {
	return NgAPModel{
		DRAMLatencySec:  400e-9,
		InFlight:        512,
		ChunkSymbols:    512,
		ChunkLatencySec: 3.0e-6,
		TargetFrontier:  48,
	}
}

// EstimateTime models the kernel time of the ngAP engine for a measured
// simulation on a device. Two latency regimes bound the time:
//
//   - fetch-bound: every follow expansion is a dependent irregular access;
//     with a fixed latency-hiding budget the achieved rate is
//     InFlight / DRAMLatency, scaling only with core clock;
//   - occupancy-bound: when the average frontier is far below the
//     saturation target, worklist batches serialize on dependent launches
//     and the device idles.
//
// Neither term scales with DRAM bandwidth, so ngAP is flat across memory
// systems and gains only the clock ratio on faster-clocked parts.
func (m NgAPModel) EstimateTime(d gpusim.Device, stats SimStats) float64 {
	if stats.Symbols == 0 {
		return 0
	}
	clockRatio := d.ClockGHz / gpusim.RTX3090.ClockGHz
	fetchSec := float64(stats.FollowFetches) * m.DRAMLatencySec / m.InFlight / clockRatio

	chunks := float64(stats.Symbols) / m.ChunkSymbols
	utilization := stats.AvgFrontier() / m.TargetFrontier
	if utilization > 1 {
		utilization = 1
	}
	if utilization < 0.005 {
		utilization = 0.005
	}
	occupancySec := chunks * m.ChunkLatencySec / utilization / clockRatio

	if fetchSec > occupancySec {
		return fetchSec
	}
	return occupancySec
}

// ThroughputMBs models the engine's throughput for a simulation run.
func (m NgAPModel) ThroughputMBs(d gpusim.Device, stats SimStats) float64 {
	return gpusim.ThroughputMBs(stats.Symbols, m.EstimateTime(d, stats))
}
