// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 8) on the simulated substrate: Table 1 (workload
// statistics), Figure 11 / Table 2 (overall throughput vs baselines),
// Table 3 / Figure 12 (optimization ablation), Table 4 (memory/DRAM under
// DTM), Table 5 (recompute overhead), Table 6 / Figure 13 (merge-size
// sweep), Figure 14 (interval-size sweep) and Figure 15 (portability).
//
// Numbers are model-derived (see DESIGN.md); EXPERIMENTS.md records the
// paper-vs-measured comparison for each artifact.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"bitgen/internal/engine"
	"bitgen/internal/gpusim"
	"bitgen/internal/hybrid"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/nfa"
	"bitgen/internal/rx"
	"bitgen/internal/transpose"
	"bitgen/internal/workload"
)

// Options scale the experiment suite.
type Options struct {
	// RegexScale is the fraction of each application's paper regex count
	// to generate; zero means 1, the paper's full sets. A smaller fraction
	// runs a subset of each application's patterns on the same devices: a
	// faster run, not an estimate of the full one.
	RegexScale float64
	// InputBytes is the input size; zero means 1_000_000 (the paper's
	// 10^6-byte inputs).
	InputBytes int
	// Apps restricts the applications; empty means all ten.
	Apps []string
	// Seed perturbs workload generation.
	Seed int64
	// HSThreads is the HS-MT goroutine count; zero means 8.
	HSThreads int
}

func (o Options) withDefaults() Options {
	if o.RegexScale == 0 {
		o.RegexScale = 1
	}
	if o.InputBytes == 0 {
		o.InputBytes = 1_000_000
	}
	if len(o.Apps) == 0 {
		o.Apps = workload.Names()
	}
	if o.HSThreads == 0 {
		o.HSThreads = 8
	}
	return o
}

// Suite caches generated applications, BitGen runs and NFA simulations
// across experiments: the artifacts share most of their runs (every one runs
// the full configuration), and each run is deterministic.
type Suite struct {
	opts Options
	apps map[string]*workload.App
	runs map[runKey]bitGenRun
	sims map[string]nfa.SimStats
}

type runKey struct {
	app string
	cfg engine.Config
}

// bitGenRun is what the artifacts read of one compiled-and-run engine.
type bitGenRun struct {
	res  *engine.Result
	pass engine.PassStats
}

// NewSuite prepares a suite.
func NewSuite(opts Options) *Suite {
	return &Suite{
		opts: opts.withDefaults(),
		apps: make(map[string]*workload.App),
		runs: make(map[runKey]bitGenRun),
		sims: make(map[string]nfa.SimStats),
	}
}

// App loads (and caches) one application.
func (s *Suite) App(name string) (*workload.App, error) {
	if app, ok := s.apps[name]; ok {
		return app, nil
	}
	app, err := workload.Load(name, workload.Options{
		RegexScale: s.opts.RegexScale,
		InputBytes: s.opts.InputBytes,
		Seed:       s.opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	s.apps[name] = app
	return app, nil
}

// runBitGen compiles and runs one application under a configuration,
// returning the engine result and what the passes did; callers share it and
// must not modify it.
func (s *Suite) runBitGen(app *workload.App, cfg engine.Config) (*engine.Result, engine.PassStats, error) {
	cfg.Grid = s.gridFor(app, cfg.Grid)
	if cfg.Device.Name == "" {
		cfg.Device = gpusim.RTX3090
	}
	key := runKey{app.Name, cfg}
	if run, ok := s.runs[key]; ok {
		return run.res, run.pass, nil
	}
	e, err := engine.Compile(app.Regexes, cfg)
	if err != nil {
		return nil, engine.PassStats{}, fmt.Errorf("%s: compile: %w", app.Name, err)
	}
	// Counters and counts only: the tables never read match positions.
	res, err := e.RunCounts(context.Background(), app.Input)
	if err != nil {
		return nil, engine.PassStats{}, fmt.Errorf("%s: run: %w", app.Name, err)
	}
	s.runs[key] = bitGenRun{res, e.PassStats}
	return res, e.PassStats, nil
}

// gridFor resolves a launch geometry for an application: the default grid
// unless one is given, with no more CTAs than the application has regexes
// (Bro217's 227 fill fewer than the default 256).
func (s *Suite) gridFor(app *workload.App, grid gpusim.Grid) gpusim.Grid {
	if grid == (gpusim.Grid{}) {
		grid = gpusim.DefaultGrid()
	}
	if grid.CTAs > len(app.Regexes) {
		grid.CTAs = len(app.Regexes)
	}
	return grid
}

// runNgAP simulates the NFA engine for an application and models its time
// on a device.
func (s *Suite) runNgAP(app *workload.App, device gpusim.Device) (float64, nfa.SimStats, error) {
	stats, ok := s.sims[app.Name]
	if !ok {
		asts := make([]rx.Node, len(app.Regexes))
		names := make([]string, len(app.Regexes))
		for i, r := range app.Regexes {
			asts[i] = r.AST
			names[i] = r.Name
		}
		n, err := nfa.Build(names, asts)
		if err != nil {
			return 0, nfa.SimStats{}, err
		}
		stats = nfa.Simulate(n, app.Input).Stats
		s.sims[app.Name] = stats
	}
	return nfa.DefaultNgAPModel().ThroughputMBs(device, stats), stats, nil
}

// runHyperscan measures the hybrid engine's wall-clock throughput. For the
// multi-threaded configuration it sweeps thread counts up to the requested
// maximum and reports the best, as the paper does for HS-MT ("we sweep the
// number of threads and report the best-performing configuration").
func (s *Suite) runHyperscan(app *workload.App, threads int) (float64, hybrid.Stats, error) {
	asts := make([]rx.Node, len(app.Regexes))
	names := make([]string, len(app.Regexes))
	for i, r := range app.Regexes {
		asts[i] = r.AST
		names[i] = r.Name
	}
	sweep := []int{threads}
	if threads > 1 {
		sweep = nil
		for t := 1; t <= threads; t *= 2 {
			sweep = append(sweep, t)
		}
	}
	var best float64
	var bestStats hybrid.Stats
	for _, t := range sweep {
		eng, err := hybrid.Compile(names, asts, hybrid.Options{Threads: t})
		if err != nil {
			return 0, hybrid.Stats{}, err
		}
		// Warm-up, then best-of-two timed runs: wall-clock measurements
		// on a shared host are noisy, and the fastest observed run is the
		// least-perturbed estimate of steady state.
		eng.Scan(app.Input)
		for rep := 0; rep < 2; rep++ {
			start := time.Now()
			res := eng.Scan(app.Input)
			elapsed := time.Since(start).Seconds()
			thpt := gpusim.ThroughputMBs(int64(len(app.Input)), elapsed) * hsCalibration(res.Stats)
			if thpt > best {
				best = thpt
				bestStats = res.Stats
			}
		}
	}
	return best, bestStats, nil
}

// hsCalibration interpolates the Go-to-Hyperscan SIMD factor by workload
// mix: the literal path (Teddy) gains the full factor, the general NFA
// path a much smaller one.
func hsCalibration(st hybrid.Stats) float64 {
	total := st.ExactRegexes + st.PrefilteredRegexes + st.GeneralRegexes
	if total == 0 {
		return hsSIMDFactor
	}
	generalShare := float64(st.GeneralRegexes) / float64(total)
	return hsSIMDFactor*(1-generalShare) + hsNFAFactor*generalShare
}

// runICGrep models the CPU bitstream engine: the whole-stream sequential
// execution of the same programs BitGen runs, on a single-core SIMD model.
func (s *Suite) runICGrep(app *workload.App) (float64, error) {
	prog, err := lower.Group(app.Regexes, lower.Options{})
	if err != nil {
		return 0, err
	}
	res, err := ir.Interpret(prog, transpose.Transpose(app.Input), ir.InterpOptions{})
	if err != nil {
		return 0, err
	}
	t := cpuBitstreamTime(res.Stats, len(app.Input))
	return gpusim.ThroughputMBs(int64(len(app.Input)), t), nil
}

// gmean computes a geometric mean of positive values.
func gmean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range values {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(values)))
}

// sortedKeys returns a map's keys in sorted order (stable rendering).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
