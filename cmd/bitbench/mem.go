package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bitgen"
	"bitgen/internal/experiments"
	"bitgen/internal/workload"
)

// The mem artifact measures compiled-state residency at ClamAV-database
// scale: it generates the deterministic signature megaset at each size,
// compiles it, and records the engine's measured resident bytes and the
// compile wall time. Unlike the table/figure artifacts these are real host
// numbers, not modeled GPU time; they are the trajectory behind
// results/BENCH_mem.json and the megaset-smoke CI gate.

// memRow is one megaset size.
type memRow struct {
	Patterns      int     `json:"patterns"`
	ResidentBytes int64   `json:"resident_bytes"`
	CompileS      float64 `json:"compile_s"`
	// Gomaxprocs is how wide the compile ran: CTA groups compile concurrently,
	// so compile_s is comparable only between rows of equal width.
	Gomaxprocs int `json:"gomaxprocs"`
}

// memReport is the BENCH_mem artifact.
type memReport struct {
	Seed    int64    `json:"seed"`
	Rows    []memRow `json:"sizes"`
	Ceiling int64    `json:"ceiling_bytes_gate,omitempty"`
	BudgetS float64  `json:"compile_budget_s_gate,omitempty"`
}

// parseMemSizes parses the -mem-sizes flag ("1000,10000,100000").
func parseMemSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad megaset size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no megaset sizes given")
	}
	return out, nil
}

// memOptions are the compile options for a megaset engine: the pattern
// cap is lifted (the whole point is exceeding DefaultMaxPatterns) and
// everything else stays at the paper defaults so the measured state is
// the state a real deployment would hold.
var memOptions = &bitgen.Options{Limits: bitgen.Limits{MaxPatterns: -1}}

// runMem executes the megaset residency measurement. The gates —
// resident-bytes ceiling, compile-time budget — apply to the largest size
// only (the smoke's 100k point); smaller sizes are recorded for the
// trajectory.
func runMem(sizesSpec string, seed int64, ceilingBytes int64, budget time.Duration) (experiments.Artifact, error) {
	sizes, err := parseMemSizes(sizesSpec)
	if err != nil {
		return nil, err
	}
	rep := &memReport{Seed: seed, Ceiling: ceilingBytes, BudgetS: budget.Seconds()}
	for _, size := range sizes {
		app, err := workload.Megaset(size, seed, 0)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		eng, err := bitgen.Compile(app.Patterns, memOptions)
		if err != nil {
			return nil, fmt.Errorf("megaset %d compile: %w", size, err)
		}
		row := memRow{Patterns: size, CompileS: time.Since(start).Seconds(), Gomaxprocs: runtime.GOMAXPROCS(0), ResidentBytes: eng.ResidentBytes()}
		rep.Rows = append(rep.Rows, row)
		fmt.Printf("    megaset %d: %.1f MiB resident, compiled in %.1fs\n",
			size, float64(row.ResidentBytes)/(1<<20), row.CompileS)
	}

	// Gates on the largest size.
	last := rep.Rows[len(rep.Rows)-1]
	if ceilingBytes > 0 && last.ResidentBytes > ceilingBytes {
		return nil, fmt.Errorf("megaset %d resident %d bytes exceeds the %d-byte ceiling",
			last.Patterns, last.ResidentBytes, ceilingBytes)
	}
	if budget > 0 && last.CompileS > budget.Seconds() {
		return nil, fmt.Errorf("megaset %d compile took %.1fs, over the %.1fs budget",
			last.Patterns, last.CompileS, budget.Seconds())
	}
	return rep, nil
}

func (r *memReport) Render() string {
	var b strings.Builder
	b.WriteString("compiled-state residency, megaset trajectory (measured host bytes)\n")
	fmt.Fprintf(&b, "%10s %18s %12s\n", "patterns", "resident bytes", "compile s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %18d %12.2f\n", row.Patterns, row.ResidentBytes, row.CompileS)
	}
	return b.String()
}

func (r *memReport) CSV() string {
	var b strings.Builder
	b.WriteString("patterns,resident_bytes,compile_s\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%d,%d,%.3f\n", row.Patterns, row.ResidentBytes, row.CompileS)
	}
	return b.String()
}

func (r *memReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
