package experiments

import (
	"fmt"
	"strings"

	"bitgen/internal/engine"
	"bitgen/internal/kernel"
)

// ExtrasSchemes decomposes the Shift Rebalancing pipeline beyond the
// paper's ladder: rewriting and barrier merging separately, to show that
// rewriting alone is a *loss* (it adds shifts) and only pays off combined
// with merging — the interplay Section 5.3 describes ("although this
// transformation may introduce new SHIFT instructions, they are merged").
var ExtrasSchemes = []string{"DTM", "rewrite-only", "merge-only", "rewrite+merge"}

func extrasConfig(scheme string) (engine.Config, error) {
	base := engine.Config{Mode: kernel.ModeDTM}
	switch scheme {
	case "DTM":
		return base, nil
	case "rewrite-only":
		base.ShiftRebalancing = true
		return base, nil
	case "merge-only":
		base.MergeSize = 8
		return base, nil
	case "rewrite+merge":
		base.ShiftRebalancing = true
		base.MergeSize = 8
		return base, nil
	}
	return base, fmt.Errorf("experiments: unknown extras scheme %q", scheme)
}

// ExtrasRow is one application's profile per scheme.
type ExtrasRow struct {
	App string
	// ThroughputMBs, ShiftBarriersPerCTA and ShiftCount are in
	// ExtrasSchemes order.
	ThroughputMBs       []float64
	ShiftBarriersPerCTA []float64
	DedupedCopies       []int
}

// ExtrasResult is the design-choice ablation.
type ExtrasResult struct {
	Schemes []string
	Rows    []ExtrasRow
}

// AblationExtras runs the decomposed Shift Rebalancing ablation.
func (s *Suite) AblationExtras() (*ExtrasResult, error) {
	out := &ExtrasResult{Schemes: ExtrasSchemes}
	for _, name := range s.opts.Apps {
		app, err := s.App(name)
		if err != nil {
			return nil, err
		}
		row := ExtrasRow{App: name}
		for _, scheme := range ExtrasSchemes {
			cfg, err := extrasConfig(scheme)
			if err != nil {
				return nil, err
			}
			res, pass, err := s.runBitGen(app, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, scheme, err)
			}
			row.ThroughputMBs = append(row.ThroughputMBs, res.ThroughputMBs)
			var sync float64
			for _, c := range res.Stats.PerCTA {
				sync += float64(c.ShiftBarriers)
			}
			if n := len(res.Stats.PerCTA); n > 0 {
				sync /= float64(n)
			}
			row.ShiftBarriersPerCTA = append(row.ShiftBarriersPerCTA, sync)
			row.DedupedCopies = append(row.DedupedCopies, pass.DedupedCopies)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the ablation.
func (r *ExtrasResult) Render() string {
	var b strings.Builder
	b.WriteString("Design-choice ablation: operand rewriting vs barrier merging\n")
	fmt.Fprintf(&b, "%-11s", "App")
	for _, sch := range r.Schemes {
		fmt.Fprintf(&b, " %14s", sch)
	}
	b.WriteString("   (normalized throughput | shift barriers per CTA)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s", row.App)
		base := row.ThroughputMBs[0]
		for i := range r.Schemes {
			norm := 0.0
			if base > 0 {
				norm = row.ThroughputMBs[i] / base
			}
			fmt.Fprintf(&b, "  %5.2fx |%6.0f", norm, row.ShiftBarriersPerCTA[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV emits comma-separated rows.
func (r *ExtrasResult) CSV() string {
	var b strings.Builder
	b.WriteString("app,scheme,throughput_mbs,shift_barriers_per_cta,deduped_copies\n")
	for _, row := range r.Rows {
		for i, sch := range r.Schemes {
			fmt.Fprintf(&b, "%s,%s,%.2f,%.1f,%d\n",
				row.App, sch, row.ThroughputMBs[i], row.ShiftBarriersPerCTA[i], row.DedupedCopies[i])
		}
	}
	return b.String()
}
