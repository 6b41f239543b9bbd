package gpusim

import (
	"encoding/json"

	"bitgen/internal/obs"
)

// ProfileSchema versions the profile artifact's JSON layout.
const ProfileSchema = "bitgen-profile/v1"

// Profile is the per-scan structured artifact joining the analytic
// TimeBreakdown cost model with the observed Nsight-equivalent counters
// per kernel launch — the join the paper's evaluation tables are made of
// (Tables 4-6 are columns of Totals and Kernels; Figure 12's breakdown is
// Time). It marshals to stable JSON for the bitbench "profile" artifact
// and the bitgen -profile workflow.
type Profile struct {
	Schema string `json:"schema"`
	// Device is the GPU profile the times were modeled on.
	Device string `json:"device"`
	// Backend names the rung that served the scan (always "bitstream"
	// when a profile exists: fallback rungs do not model GPU execution).
	Backend string `json:"backend"`
	// InputBytes is the scanned input length; TransposeBytes the S2P
	// preprocessing traffic charged to the launch.
	InputBytes     int64 `json:"input_bytes"`
	TransposeBytes int64 `json:"transpose_bytes"`
	// Time is the launch-wide modeled breakdown; ThroughputMBs the
	// paper's throughput metric derived from it.
	Time          TimeBreakdown `json:"time"`
	ThroughputMBs float64       `json:"throughput_mbs"`
	// Totals sums every kernel's counters (identical to summing Kernels).
	Totals CTAStats `json:"totals"`
	// Kernels holds one entry per kernel launch (one CTA group).
	Kernels []KernelProfile `json:"kernels"`
}

// KernelProfile is one kernel launch's (one CTA group's) observed
// counters joined with its modeled time components.
type KernelProfile struct {
	// Group is the CTA group index; Patterns the regexes it matched.
	Group    int      `json:"group"`
	Patterns []string `json:"patterns,omitempty"`
	// Time holds the per-kernel compute/smem/barrier/DRAM seconds
	// (gpusim.PerCTATime — the same formulas EstimateTime aggregates).
	Time CTATime `json:"time"`
	// Stats are the kernel's raw event counters.
	Stats CTAStats `json:"stats"`
}

// BuildProfile joins a launch's counters with the cost model. groups may
// be nil (pattern attribution omitted) or hold one name slice per CTA.
func BuildProfile(d Device, ks *KernelStats, tb TimeBreakdown, throughputMBs float64, groups [][]string) *Profile {
	p := &Profile{
		Schema:         ProfileSchema,
		Device:         d.Name,
		Backend:        "bitstream",
		InputBytes:     ks.InputBytes,
		TransposeBytes: ks.TransposeBytes,
		Time:           tb,
		ThroughputMBs:  throughputMBs,
		Totals:         ks.Total(),
	}
	for i := range ks.PerCTA {
		kp := KernelProfile{
			Group: i,
			Time:  PerCTATime(d, &ks.PerCTA[i]),
			Stats: ks.PerCTA[i],
		}
		if i < len(groups) {
			kp.Patterns = groups[i]
		}
		p.Kernels = append(p.Kernels, kp)
	}
	return p
}

// JSON marshals the profile (indented, trailing newline).
func (p *Profile) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RecordKernelStats aggregates one launch's counters and modeled time
// into the metrics registry — the bridge that makes the acceptance
// invariant hold: after one scan, the registry's DRAM/SMem/barrier totals
// exactly equal KernelStats.Total(). Nil-safe on reg.
func RecordKernelStats(reg *obs.Registry, ks *KernelStats, tb TimeBreakdown) {
	if reg == nil {
		return
	}
	t := ks.Total()
	reg.Counter(obs.MKernelLaunches, obs.HKernelLaunches).AddInt(int64(len(ks.PerCTA)))
	reg.Counter(obs.MModeledSecs, obs.HModeledSecs).Add(tb.TotalSec)
	reg.Counter(obs.MDRAMReadBytes, obs.HDRAMReadBytes).AddInt(t.DRAMReadBytes)
	reg.Counter(obs.MDRAMWriteBytes, obs.HDRAMWriteBytes).AddInt(t.DRAMWriteBytes)
	reg.Counter(obs.MSMemReadBytes, obs.HSMemReadBytes).AddInt(t.SMemReadBytes)
	reg.Counter(obs.MSMemWriteBytes, obs.HSMemWriteBytes).AddInt(t.SMemWriteBytes)
	reg.Counter(obs.MBarriers, obs.HBarriers).AddInt(t.Barriers)
	reg.Counter(obs.MShiftBarriers, obs.HShiftBarriers).AddInt(t.ShiftBarriers)
	reg.Counter(obs.MUnitOps, obs.HUnitOps).AddInt(t.UnitOps)
	reg.Counter(obs.MWindows, obs.HWindows).AddInt(t.Windows)
	reg.Counter(obs.MGuardChecks, obs.HGuardChecks).AddInt(t.GuardChecks)
	reg.Counter(obs.MGuardSkips, obs.HGuardSkips).AddInt(t.GuardSkips)
	reg.Counter(obs.MSkippedStmts, obs.HSkippedStmts).AddInt(t.SkippedStmts)
	reg.Counter(obs.MCommittedBits, obs.HCommittedBits).AddInt(t.CommittedBits)
	reg.Counter(obs.MRecomputedBits, obs.HRecomputedBits).AddInt(t.RecomputedBits)
	reg.Counter(obs.MTransposeBytes, obs.HTransposeBytes).AddInt(ks.TransposeBytes)
	ratio := 0.0
	if t.GuardChecks > 0 {
		ratio = float64(t.GuardSkips) / float64(t.GuardChecks)
	}
	reg.Gauge(obs.MZBSSkipRatio, obs.HZBSSkipRatio).Set(ratio)
}
