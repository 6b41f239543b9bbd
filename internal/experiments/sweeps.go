package experiments

import (
	"fmt"
	"strings"

	"bitgen/internal/engine"
	"bitgen/internal/kernel"
)

// MergeSizes are Figure 13 / Table 6's sweep points.
var MergeSizes = []int{1, 4, 16, 32}

// MergeSweepRow is one merge size's profile (Table 6) plus per-app
// normalized throughput (Figure 13).
type MergeSweepRow struct {
	MergeSize int
	// SyncPerCTA is the mean shift-barrier count per CTA (#Sync).
	SyncPerCTA float64
	// SMemKB is the shared-memory footprint of one merged group.
	SMemKB float64
	// BarrierStallPct is the modeled stall share.
	BarrierStallPct float64
	// SMemAccessMB is mean shared-memory traffic per CTA.
	SMemAccessMB float64
	// PerApp maps application to throughput normalized to merge size 1.
	PerApp map[string]float64
}

// MergeSweepResult is the regenerated Figure 13 + Table 6.
type MergeSweepResult struct {
	Rows []MergeSweepRow
}

// Figure13MergeSize sweeps the merge size with shift rebalancing on.
func (s *Suite) Figure13MergeSize() (*MergeSweepResult, error) {
	out := &MergeSweepResult{}
	baseline := make(map[string]float64)
	for _, ms := range MergeSizes {
		row := MergeSweepRow{MergeSize: ms, PerApp: make(map[string]float64)}
		ctas := 0
		var stallSum float64
		apps := 0
		for _, name := range s.opts.Apps {
			app, err := s.App(name)
			if err != nil {
				return nil, err
			}
			cfg := engine.Config{Mode: kernel.ModeDTM, ShiftRebalancing: true, MergeSize: ms}
			res, _, err := s.runBitGen(app, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/merge%d: %w", name, ms, err)
			}
			for _, c := range res.Stats.PerCTA {
				row.SyncPerCTA += float64(c.ShiftBarriers)
				row.SMemAccessMB += float64(c.SMemReadBytes+c.SMemWriteBytes) / 1e6
				ctas++
			}
			stallSum += res.Time.BarrierStallPercent
			apps++
			if ms == MergeSizes[0] {
				baseline[name] = res.ThroughputMBs
			}
			if baseline[name] > 0 {
				row.PerApp[name] = res.ThroughputMBs / baseline[name]
			}
		}
		if ctas > 0 {
			row.SyncPerCTA /= float64(ctas)
			row.SMemAccessMB /= float64(ctas)
		}
		if apps > 0 {
			row.BarrierStallPct = stallSum / float64(apps)
		}
		// One T×W tile per merged stream.
		row.SMemKB = float64(ms) * 512 * 32 / 8 / 1024
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the sweep.
func (r *MergeSweepResult) Render() string {
	var b strings.Builder
	b.WriteString("Table 6 / Figure 13: Shift Rebalancing merge-size sweep\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %14s %14s\n",
		"Merge", "#Sync/CTA", "SMem(KB)", "BarrierStall%", "SMemAcc(MB)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "SR_%-5d %10.1f %10.0f %14.1f %14.2f\n",
			row.MergeSize, row.SyncPerCTA, row.SMemKB, row.BarrierStallPct, row.SMemAccessMB)
	}
	b.WriteString("\nNormalized throughput per app (vs merge size 1):\n")
	if len(r.Rows) > 0 {
		apps := sortedKeys(r.Rows[0].PerApp)
		fmt.Fprintf(&b, "%-11s", "App")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, " SR_%-5d", row.MergeSize)
		}
		b.WriteString("\n")
		for _, app := range apps {
			fmt.Fprintf(&b, "%-11s", app)
			for _, row := range r.Rows {
				fmt.Fprintf(&b, " %7.2fx", row.PerApp[app])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// CSV emits comma-separated rows.
func (r *MergeSweepResult) CSV() string {
	var b strings.Builder
	b.WriteString("merge_size,sync_per_cta,smem_kb,barrier_stall_pct,smem_access_mb\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%d,%.2f,%.1f,%.2f,%.3f\n",
			row.MergeSize, row.SyncPerCTA, row.SMemKB, row.BarrierStallPct, row.SMemAccessMB)
	}
	return b.String()
}

// IntervalSizes are Figure 14's sweep points.
var IntervalSizes = []int{1, 2, 4, 8}

// IntervalRow is one application's normalized throughput per interval size.
type IntervalRow struct {
	App string
	// Normalized is throughput relative to interval size 1, in
	// IntervalSizes order.
	Normalized []float64
}

// IntervalResult is the regenerated Figure 14.
type IntervalResult struct {
	Sizes []int
	Rows  []IntervalRow
}

// Figure14Interval sweeps the ZBS guard interval.
func (s *Suite) Figure14Interval() (*IntervalResult, error) {
	out := &IntervalResult{Sizes: IntervalSizes}
	for _, name := range s.opts.Apps {
		app, err := s.App(name)
		if err != nil {
			return nil, err
		}
		row := IntervalRow{App: name}
		var base float64
		for i, interval := range IntervalSizes {
			cfg := engine.BitGenDefault()
			cfg.IntervalSize = interval
			res, _, err := s.runBitGen(app, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/interval%d: %w", name, interval, err)
			}
			if i == 0 {
				base = res.ThroughputMBs
			}
			if base > 0 {
				row.Normalized = append(row.Normalized, res.ThroughputMBs/base)
			} else {
				row.Normalized = append(row.Normalized, 0)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the sweep.
func (r *IntervalResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 14: Zero Block Skipping interval-size sweep (normalized to I=1)\n")
	fmt.Fprintf(&b, "%-11s", "App")
	for _, sz := range r.Sizes {
		fmt.Fprintf(&b, "     I=%-2d", sz)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s", row.App)
		for _, v := range row.Normalized {
			fmt.Fprintf(&b, " %7.2fx", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV emits comma-separated rows.
func (r *IntervalResult) CSV() string {
	var b strings.Builder
	b.WriteString("app")
	for _, sz := range r.Sizes {
		fmt.Fprintf(&b, ",i%d", sz)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		b.WriteString(row.App)
		for _, v := range row.Normalized {
			fmt.Fprintf(&b, ",%.4f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}
