package experiments

import (
	"fmt"
	"strings"

	"bitgen/internal/engine"
	"bitgen/internal/gpusim"
)

// OverallRow is one application's throughput across all five schemes
// (Table 2 / Figure 11).
type OverallRow struct {
	App string
	// Throughputs in MB/s.
	BitGen, HS1T, HSMT, NgAP, ICGrep float64
}

// Speedup returns BitGen's speedup over a baseline column.
func (r OverallRow) Speedup(baseline float64) float64 {
	if baseline <= 0 {
		return 0
	}
	return r.BitGen / baseline
}

// OverallResult is the regenerated Table 2 / Figure 11.
type OverallResult struct {
	Rows []OverallRow
	// Gmean speedups of BitGen over each baseline.
	GmeanHS1T, GmeanHSMT, GmeanNgAP, GmeanICGrep float64
}

// Table2Figure11 runs all five schemes over every application.
func (s *Suite) Table2Figure11() (*OverallResult, error) { return s.overall(true) }

// overall is Table2Figure11; without wallClock it leaves the HS-1T and HS-MT
// columns, the only ones timed on the host, at zero.
func (s *Suite) overall(wallClock bool) (*OverallResult, error) {
	out := &OverallResult{}
	var sp1, spM, spN, spI []float64
	for _, name := range s.opts.Apps {
		app, err := s.App(name)
		if err != nil {
			return nil, err
		}
		row := OverallRow{App: name}

		res, _, err := s.runBitGen(app, engine.BitGenDefault())
		if err != nil {
			return nil, err
		}
		row.BitGen = res.ThroughputMBs

		if wallClock {
			if row.HS1T, _, err = s.runHyperscan(app, 1); err != nil {
				return nil, err
			}
			if row.HSMT, _, err = s.runHyperscan(app, s.opts.HSThreads); err != nil {
				return nil, err
			}
		}
		row.NgAP, _, err = s.runNgAP(app, gpusim.RTX3090)
		if err != nil {
			return nil, err
		}
		row.ICGrep, err = s.runICGrep(app)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
		sp1 = append(sp1, row.Speedup(row.HS1T))
		spM = append(spM, row.Speedup(row.HSMT))
		spN = append(spN, row.Speedup(row.NgAP))
		spI = append(spI, row.Speedup(row.ICGrep))
	}
	out.GmeanHS1T = gmean(sp1)
	out.GmeanHSMT = gmean(spM)
	out.GmeanNgAP = gmean(spN)
	out.GmeanICGrep = gmean(spI)
	return out, nil
}

// Render formats the table with throughputs and speedups.
func (r *OverallResult) Render() string {
	var b strings.Builder
	b.WriteString("Table 2 / Figure 11: overall throughput (MB/s) and BitGen speedups\n")
	fmt.Fprintf(&b, "%-11s %9s | %9s %7s | %9s %7s | %9s %7s | %9s %7s\n",
		"App", "BitGen", "HS-1T", "SpdUp", "HS-MT", "SpdUp", "ngAP", "SpdUp", "icgrep", "SpdUp")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s %9.1f | %9.1f %6.1fx | %9.1f %6.1fx | %9.1f %6.1fx | %9.1f %6.1fx\n",
			row.App, row.BitGen,
			row.HS1T, row.Speedup(row.HS1T),
			row.HSMT, row.Speedup(row.HSMT),
			row.NgAP, row.Speedup(row.NgAP),
			row.ICGrep, row.Speedup(row.ICGrep))
	}
	fmt.Fprintf(&b, "%-11s %9s | %9s %6.1fx | %9s %6.1fx | %9s %6.1fx | %9s %6.1fx\n",
		"Gmean", "", "", r.GmeanHS1T, "", r.GmeanHSMT, "", r.GmeanNgAP, "", r.GmeanICGrep)
	return b.String()
}

// CSV emits comma-separated rows.
func (r *OverallResult) CSV() string {
	var b strings.Builder
	b.WriteString("app,bitgen_mbs,hs1t_mbs,hsmt_mbs,ngap_mbs,icgrep_mbs\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			row.App, row.BitGen, row.HS1T, row.HSMT, row.NgAP, row.ICGrep)
	}
	return b.String()
}
