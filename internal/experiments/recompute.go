package experiments

import (
	"fmt"
	"strings"

	"bitgen/internal/engine"
)

// RecomputeRow is one application's DTM overhead profile (Table 5).
type RecomputeRow struct {
	App string
	// AvgStatic is the compile-time overlap distance in bits.
	AvgStatic float64
	// AvgDynamic / MaxDynamic are runtime overlap growth beyond static.
	AvgDynamic float64
	MaxDynamic int64
	// RecomputePct is recomputed bits / committed bits × 100.
	RecomputePct float64
	// Iterations is the mean number of block iterations per CTA.
	Iterations float64
	// Fallbacks counts loops/carries that exceeded the overlap limit.
	Fallbacks int
}

// RecomputeResult is the regenerated Table 5.
type RecomputeResult struct {
	Rows []RecomputeRow
}

// Table5Recompute profiles the dependency-aware mapping overhead under the
// full configuration.
func (s *Suite) Table5Recompute() (*RecomputeResult, error) {
	out := &RecomputeResult{}
	for _, name := range s.opts.Apps {
		app, err := s.App(name)
		if err != nil {
			return nil, err
		}
		res, _, err := s.runBitGen(app, engine.BitGenDefault())
		if err != nil {
			return nil, err
		}
		row := RecomputeRow{App: name, Fallbacks: res.Fallbacks}
		nCTA := float64(len(res.Stats.PerCTA))
		var staticSum float64
		var windows int64
		for _, c := range res.Stats.PerCTA {
			staticSum += float64(c.StaticDelta)
			row.AvgDynamic += float64(c.DynDeltaSum)
			if c.DynDeltaMax > row.MaxDynamic {
				row.MaxDynamic = c.DynDeltaMax
			}
			windows += c.Windows
		}
		total := res.Stats.Total()
		row.AvgStatic = staticSum / nCTA
		if windows > 0 {
			row.AvgDynamic /= float64(windows)
		}
		row.RecomputePct = total.RecomputePercent()
		row.Iterations = float64(windows) / nCTA
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the table.
func (r *RecomputeResult) Render() string {
	var b strings.Builder
	b.WriteString("Table 5: recomputation overhead of Dependency-Aware Thread-Data Mapping\n")
	fmt.Fprintf(&b, "%-11s %10s %11s %11s %11s %8s %9s\n",
		"App", "AvgStatic", "AvgDynamic", "MaxDynamic", "Recompute%", "#Iter", "Fallback")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s %10.1f %11.2f %11d %11.3f %8.1f %9d\n",
			row.App, row.AvgStatic, row.AvgDynamic, row.MaxDynamic,
			row.RecomputePct, row.Iterations, row.Fallbacks)
	}
	return b.String()
}

// CSV emits comma-separated rows.
func (r *RecomputeResult) CSV() string {
	var b strings.Builder
	b.WriteString("app,avg_static_bits,avg_dynamic_bits,max_dynamic_bits,recompute_pct,iterations,fallbacks\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%.2f,%.3f,%d,%.4f,%.1f,%d\n",
			row.App, row.AvgStatic, row.AvgDynamic, row.MaxDynamic,
			row.RecomputePct, row.Iterations, row.Fallbacks)
	}
	return b.String()
}
