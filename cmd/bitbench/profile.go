package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"bitgen"
	"bitgen/internal/experiments"
	"bitgen/internal/workload"
)

// profileRow is one application scanned with observability enabled; its
// Profile carries the per-kernel modeled time components
// (compute/smem/barrier/DRAM seconds) joined with the observed counters.
type profileRow struct {
	App     string          `json:"app"`
	Matches int             `json:"matches"`
	Profile *bitgen.Profile `json:"profile"`
}

type profileReport struct {
	rows []profileRow
}

// runProfile scans each selected application through the public API with
// metrics enabled and collects the per-scan profile artifact. The
// numbers are gpusim.PerCTATime / the engine's TimeBreakdown — the same
// values the bitgen -profile exporter writes, by construction.
func runProfile(s *experiments.Suite) (*profileReport, error) {
	apps := s.Opts().Apps
	if len(apps) == 0 {
		apps = workload.Names()
	}
	rep := &profileReport{}
	for _, name := range apps {
		app, err := s.App(name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		eng, err := bitgen.Compile(app.Patterns, &bitgen.Options{
			Observability: &bitgen.ObservabilityOptions{Metrics: true},
		})
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", name, err)
		}
		res, err := eng.Run(app.Input)
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", name, err)
		}
		if res.Profile == nil {
			return nil, fmt.Errorf("%s: no profile in result", name)
		}
		rep.rows = append(rep.rows, profileRow{
			App:     name,
			Matches: len(res.Matches),
			Profile: res.Profile,
		})
	}
	return rep, nil
}

func (r *profileReport) Render() string {
	var b strings.Builder
	b.WriteString("per-scan profiles (modeled seconds; kernels = CTA groups)\n")
	fmt.Fprintf(&b, "%-12s %8s %12s %12s %12s %12s %12s %12s\n",
		"app", "kernels", "compute_s", "smem_s", "barrier_s", "dram_s", "total_s", "MB/s")
	for _, row := range r.rows {
		p := row.Profile
		fmt.Fprintf(&b, "%-12s %8d %12.3e %12.3e %12.3e %12.3e %12.3e %12.1f\n",
			row.App, len(p.Kernels), p.Time.ComputeSec, p.Time.SMemSec,
			p.Time.BarrierSec, p.Time.DRAMSec, p.Time.TotalSec, p.ThroughputMBs)
	}
	return b.String()
}

func (r *profileReport) CSV() string {
	var b strings.Builder
	b.WriteString("app,group,patterns,compute_sec,smem_sec,barrier_sec,dram_sec,unit_ops,dram_read_bytes,dram_write_bytes,smem_read_bytes,smem_write_bytes,barriers,guard_skips\n")
	for _, row := range r.rows {
		for _, k := range row.Profile.Kernels {
			fmt.Fprintf(&b, "%s,%d,%d,%g,%g,%g,%g,%d,%d,%d,%d,%d,%d,%d\n",
				row.App, k.Group, len(k.Patterns),
				k.Time.ComputeSec, k.Time.SMemSec, k.Time.BarrierSec, k.Time.DRAMSec,
				k.Stats.UnitOps, k.Stats.DRAMReadBytes, k.Stats.DRAMWriteBytes,
				k.Stats.SMemReadBytes, k.Stats.SMemWriteBytes,
				k.Stats.Barriers, k.Stats.GuardSkips)
		}
	}
	return b.String()
}

// JSON renders the full artifact — every app's complete Profile including
// per-kernel time components — for the -json output directory.
func (r *profileReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r.rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
