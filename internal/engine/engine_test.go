package engine

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/kernel"
	"bitgen/internal/lower"
	"bitgen/internal/rx"
	"bitgen/internal/transpose"
)

func mustRegexes(t testing.TB, patterns ...string) []lower.Regex {
	t.Helper()
	out := make([]lower.Regex, len(patterns))
	for i, p := range patterns {
		out[i] = lower.Regex{Name: p, AST: rx.MustParse(p)}
	}
	return out
}

var smallGrid = gpusim.Grid{CTAs: 4, Threads: 8, UnitBits: 32, UnitsPerThread: 1}

func TestCompileAndRunMatchesInterpreter(t *testing.T) {
	regexes := mustRegexes(t, "cat", "dog(gy)?", "b[ir]rd", "fi(sh)+", "h[aeiou]mster")
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	cfg.KeepOutputs = true
	e, err := Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("cat doggy bird fishsh hamster hombre dog ", 25))
	res, err := e.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: single interpreter over the whole set.
	prog, err := lower.Group(regexes, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ir.Interpret(prog, transpose.Transpose(input), ir.InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regexes {
		if !res.Outputs[r.Name].Equal(ref.Outputs[r.Name]) {
			t.Errorf("%s diverges from interpreter", r.Name)
		}
		if res.MatchCounts[r.Name] != ref.Outputs[r.Name].Popcount() {
			t.Errorf("%s count mismatch", r.Name)
		}
	}
	if res.ThroughputMBs <= 0 {
		t.Error("no throughput modeled")
	}

	// Run and ScanSession launch from one kernel configuration: the same
	// bytes as one chunk model the same per-group cost.
	ss, err := e.NewScanSession(len(input), &arena.Arena{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	matches, err := ss.Scan(context.Background(), input, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(matches)) != res.TotalMatches {
		t.Errorf("Scan found %d matches, Run %d", len(matches), res.TotalMatches)
	}
	if !reflect.DeepEqual(matches, res.Matches) {
		t.Errorf("Scan and Run collect through one merge but list different matches:\n%v\n%v", matches, res.Matches)
	}
	for gi, stats := range ss.stats {
		if stats != res.Stats.PerCTA[gi] {
			t.Errorf("group %d: Scan stats %+v != Run stats %+v", gi, stats, res.Stats.PerCTA[gi])
		}
	}
}

// TestSharedClassesMatchInterpreterAndAllocateNothing covers the engines
// whose groups read classes one shared program computes. Run, RunCounts and
// a chunked ScanSession must equal the reference interpreter, and — the class
// streams and registers retained by the session like every group's buffers —
// a warmed-up Scan allocates nothing per chunk.
func TestSharedClassesMatchInterpreterAndAllocateNothing(t *testing.T) {
	regexes := mustRegexes(t, "[a-f]x[0-9]", "[a-f]y[0-9]", "z[0-9][a-f]", "[0-9]+q", "w[a-f]{2}")
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	cfg.KeepOutputs = true
	e, err := Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.shared == nil || len(e.groups) < 2 {
		t.Fatalf("want >= 2 groups sharing a class, got %d groups, shared=%v", len(e.groups), e.shared != nil)
	}
	input := []byte(strings.Repeat("ax1 by22q z3c wab cy9 77q zz4f wfx0 ", 40))
	prog, err := lower.Group(regexes, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ir.Interpret(prog, transpose.Transpose(input), ir.InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := e.RunCounts(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range regexes {
		n := ref.Outputs[r.Name].Popcount()
		want += n
		if !res.Outputs[r.Name].Equal(ref.Outputs[r.Name]) {
			t.Errorf("Run: %s diverges from the interpreter", r.Name)
		}
		if counts.MatchCounts[r.Name] != n {
			t.Errorf("RunCounts: %s = %d, want %d", r.Name, counts.MatchCounts[r.Name], n)
		}
	}
	if want == 0 {
		t.Fatal("reference found no matches")
	}

	// The same bytes in two chunks (no match straddles the cut: it falls
	// after a space), then the steady state.
	a := &arena.Arena{}
	ss, err := e.NewScanSession(len(input), a, 1)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(input) / 2
	for input[cut-1] != ' ' {
		cut++
	}
	ctx := context.Background()
	matches, err := ss.Scan(ctx, input[:cut], 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if matches, err = ss.Scan(ctx, input[cut:], int64(cut), int64(cut), matches); err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if name := e.matchNames[m.Rank]; !ref.Outputs[name].Test(int(m.End)) {
			t.Errorf("Scan reported %s ending at %d; the interpreter did not", name, m.End)
		}
	}
	if len(matches) != want {
		t.Errorf("Scan found %d matches, the interpreter %d", len(matches), want)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if matches, err = ss.Scan(ctx, input, 0, 0, matches[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Scan with shared classes allocates %.1f times per chunk, want 0", allocs)
	}
	ss.Close()
	if err := a.CheckBalanced(); err != nil {
		t.Errorf("arena unbalanced after Close: %v", err)
	}
}

// TestSparseInputsMatchInterpreter drives the inputs on which the kernel's
// known-zero registers carry the run — whole class streams empty — through
// the three entry points that share the executor: a two-letter input over an
// alphabet disjoint from the patterns', an all-NUL chunk, and a chunk whose
// only match straddles the start of its last window (4099 bytes is two
// windows of the grid plus three bytes).
func TestSparseInputsMatchInterpreter(t *testing.T) {
	regexes := mustRegexes(t, "abcd", "ab+c", "a[bc]{2,4}d", "(ab|cd)+a", "d.{3}a", "b[ab]{1,3}c")
	cfg := BitGenDefault()
	cfg.Grid = gpusim.Grid{CTAs: 3, Threads: 64, UnitBits: 32, UnitsPerThread: 1}
	cfg.KeepOutputs = true
	e, err := Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Group(regexes, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4099
	disjoint := make([]byte, n)
	for i := range disjoint {
		disjoint[i] = "xy"[i*7%3%2]
	}
	straddle := []byte(strings.Repeat("x", n))
	copy(straddle[4094:], "abcd")
	ss, err := e.NewScanSession(n, &arena.Arena{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ctx := context.Background()
	for name, input := range map[string][]byte{"disjoint": disjoint, "nul": make([]byte, n), "straddle": straddle} {
		ref, err := ir.Interpret(prog, transpose.Transpose(input), ir.InterpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(input)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		counts, err := e.RunCounts(ctx, input)
		if err != nil {
			t.Fatalf("%s: RunCounts: %v", name, err)
		}
		matches, err := ss.Scan(ctx, input, 0, 0, nil)
		if err != nil {
			t.Fatalf("%s: Scan: %v", name, err)
		}
		want := 0
		for _, r := range regexes {
			w := ref.Outputs[r.Name]
			want += w.Popcount()
			if !res.Outputs[r.Name].Equal(w) {
				t.Errorf("%s: Run: %s diverges from the interpreter", name, r.Name)
			}
			if counts.MatchCounts[r.Name] != w.Popcount() {
				t.Errorf("%s: RunCounts: %s = %d, want %d", name, r.Name, counts.MatchCounts[r.Name], w.Popcount())
			}
		}
		for _, m := range matches {
			if pat := e.matchNames[m.Rank]; !ref.Outputs[pat].Test(int(m.End)) {
				t.Errorf("%s: Scan reported %s ending at %d; the interpreter did not", name, pat, m.End)
			}
		}
		if len(matches) != want {
			t.Errorf("%s: Scan found %d matches, the interpreter %d", name, len(matches), want)
		}
		if wantAny := name == "straddle"; (want > 0) != wantAny {
			t.Errorf("%s: the interpreter found %d matches", name, want)
		}
	}
}

func TestPartitionBalancesByLength(t *testing.T) {
	var regexes []lower.Regex
	for i := 0; i < 40; i++ {
		pat := strings.Repeat("a", 5+i*3)
		regexes = append(regexes, lower.Regex{Name: pat, AST: rx.MustParse(pat)})
	}
	parts := partition(regexes, 4)
	if len(parts) != 4 {
		t.Fatalf("%d parts", len(parts))
	}
	minC, maxC := parts[0].chars, parts[0].chars
	for _, p := range parts {
		if p.chars < minC {
			minC = p.chars
		}
		if p.chars > maxC {
			maxC = p.chars
		}
	}
	if float64(maxC) > 1.3*float64(minC) {
		t.Errorf("imbalanced partition: min %d, max %d", minC, maxC)
	}
}

func TestPartitionFewerRegexesThanCTAs(t *testing.T) {
	regexes := mustRegexes(t, "aa", "bb")
	parts := partition(regexes, 16)
	if len(parts) != 2 {
		t.Fatalf("%d parts, want 2", len(parts))
	}
}

func TestAblationLadderConfigs(t *testing.T) {
	// The five rows of Table 3 must all compile, run, and agree, and Shift
	// Rebalancing with barrier merging must cut DTM's barriers.
	regexes := mustRegexes(t, "ab(cd)*e", "xy+z", "hello", "w[aeiou]rld.*end")
	input := []byte(strings.Repeat("abcdcde xyyz hello world...end ", 30))
	configs := map[string]Config{
		"Base": {Mode: kernel.ModeBase},
		"DTM-": {Mode: kernel.ModeDTMStatic},
		"DTM":  {Mode: kernel.ModeDTM},
		"SR":   {Mode: kernel.ModeDTM, ShiftRebalancing: true, MergeSize: 8},
		"ZBS":  BitGenDefault(),
	}
	var wantCounts map[string]int
	barriers := map[string]int64{}
	for name, cfg := range configs {
		cfg.Grid = smallGrid
		e, err := Compile(regexes, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := e.Run(input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		barriers[name] = res.Stats.Total().Barriers
		if wantCounts == nil {
			wantCounts = res.MatchCounts
			continue
		}
		for k, v := range wantCounts {
			if res.MatchCounts[k] != v {
				t.Errorf("%s: count for %q = %d, want %d", name, k, res.MatchCounts[k], v)
			}
		}
	}
	if barriers["SR"] >= barriers["DTM"] {
		t.Errorf("SR barriers = %d, DTM %d: rebalancing did not cut them", barriers["SR"], barriers["DTM"])
	}
}

func TestOptimizationsImproveModeledTime(t *testing.T) {
	// On a shift-heavy literal workload, the full pipeline must model
	// faster than bare DTM (Figure 12's SR/ZBS gains).
	var patterns []string
	for i := 0; i < 12; i++ {
		patterns = append(patterns, strings.Repeat(string(rune('a'+i)), 1)+"bcdefgh")
	}
	regexes := mustRegexes(t, patterns...)
	input := []byte(strings.Repeat("the quick brown fox jumped over the lazy dog ", 60))
	base := Config{Mode: kernel.ModeDTM, Grid: smallGrid}
	full := BitGenDefault()
	full.Grid = smallGrid
	eBase, err := Compile(regexes, base)
	if err != nil {
		t.Fatal(err)
	}
	eFull, err := Compile(regexes, full)
	if err != nil {
		t.Fatal(err)
	}
	rBase, err := eBase.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	rFull, err := eFull.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if rFull.Time.TotalSec >= rBase.Time.TotalSec {
		t.Errorf("optimizations did not help: %.3gs vs %.3gs", rFull.Time.TotalSec, rBase.Time.TotalSec)
	}
	if eFull.PassStats.Rewrites == 0 && eFull.PassStats.MergedGroups == 0 {
		t.Error("passes did nothing on a shift-heavy workload")
	}
}

func TestMergeSizeClampedBySharedMemory(t *testing.T) {
	cfg := Config{Device: gpusim.RTX3090, Grid: gpusim.DefaultGrid(), MergeSize: 1000}
	ms := clampMergeSize(cfg.withDefaults())
	tile := 512 * 32 / 8
	if ms != gpusim.RTX3090.SharedMemPerCTA/tile {
		t.Errorf("clamp = %d", ms)
	}
}

func TestCompileRejectsEmpty(t *testing.T) {
	if _, err := Compile(nil, BitGenDefault()); err == nil {
		t.Fatal("empty regex set accepted")
	}
}

func TestDeviceAffectsModeledTime(t *testing.T) {
	regexes := mustRegexes(t, "abcdefgh", "ijklmnop")
	input := []byte(strings.Repeat("abcdefgh ijklmnop qrstuvwx ", 40))
	t3090 := runOn(t, regexes, input, gpusim.RTX3090)
	tL40S := runOn(t, regexes, input, gpusim.L40S)
	if tL40S >= t3090 {
		t.Errorf("L40S (%.3g) not faster than 3090 (%.3g) on compute-bound work", tL40S, t3090)
	}
}

func TestExplainReport(t *testing.T) {
	regexes := mustRegexes(t, "abcdef", "g(hi)*j", "k[lm]n")
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	e, err := Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.Explain()
	if len(rep.Groups) != len(e.Groups()) {
		t.Fatalf("%d group reports for %d groups", len(rep.Groups), len(e.Groups()))
	}
	if rep.Totals.Shift == 0 || rep.Totals.And == 0 {
		t.Fatalf("empty totals: %+v", rep.Totals)
	}
	dynamicSeen := false
	for _, g := range rep.Groups {
		if g.Regexes == 0 || g.Stats.Total() == 0 {
			t.Errorf("group %d empty: %+v", g.Index, g)
		}
		if g.Dynamic {
			dynamicSeen = true
		}
	}
	if !dynamicSeen {
		t.Error("g(hi)*j group not flagged dynamic")
	}
	text := rep.String()
	for _, want := range []string{"CTA groups", "delta", "guards"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestSequentialFootprintAtScaleExceedsMemory(t *testing.T) {
	// Section 3.2: at the paper's scale, the materialized intermediates of
	// execution that is not interleaved exceed device memory. Verify the
	// footprint arithmetic: our small run's footprint, extrapolated to
	// 256 CTAs × 1 MB inputs × a paper-sized program, crosses 24 GB.
	regexes := mustRegexes(t, "ab(cd)*e", "xy+z", "hello", "w[aeiou]rld")
	cfg := Config{Mode: kernel.ModeBase, Grid: smallGrid, KeepOutputs: false}
	e, err := Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("hello world xyz abcdcde ", 50))
	res, err := e.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntermediateFootprintBytes <= 0 {
		t.Fatal("Base run reported no intermediate footprint")
	}
	if res.ExceedsDeviceMemory {
		t.Fatal("tiny run cannot exceed 24GB")
	}
	// Extrapolation: intermediates per CTA here × 256 CTAs × (1 MB / 8)
	// bytes per stream, with a paper-sized program (~318 intermediates).
	paperFootprint := int64(318) * 256 * (1_000_000 / 8)
	if paperFootprint < 10e9 {
		t.Fatalf("expected >10GB at paper scale, got %d", paperFootprint)
	}
	// DTM has no materialized intermediates at all.
	cfgDTM := cfg
	cfgDTM.Mode = kernel.ModeDTM
	eDTM, err := Compile(regexes, cfgDTM)
	if err != nil {
		t.Fatal(err)
	}
	resDTM, err := eDTM.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if resDTM.IntermediateFootprintBytes != 0 {
		t.Fatalf("DTM footprint = %d, want 0", resDTM.IntermediateFootprintBytes)
	}
}

func runOn(t *testing.T, regexes []lower.Regex, input []byte, d gpusim.Device) float64 {
	t.Helper()
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	cfg.Device = d
	e, err := Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	return res.Time.TotalSec
}

// TestIdleEngineRunsWarm pins that an engine left idle across collector
// cycles keeps a pooled session: the Run after two runtime.GC calls reuses
// it, allocating under half of what the first Run's session build did, where
// a pool the collector empties decodes and compiles every group's kernel
// again.
func TestIdleEngineRunsWarm(t *testing.T) {
	regexes := mustRegexes(t, "cat", "dog(gy)?", "b[ir]rd", "fi(sh)+", "h[aeiou]mster", "a[0-9]+z", "x(yz)*w", "q.u")
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	e, err := Compile(regexes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("cat doggy bird fishsh hamster a12z xyzw quu ", 8))
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Run(input); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	cold := run()
	runtime.GC()
	runtime.GC()
	warm := run()
	t.Logf("first Run %d objects, Run after two collector cycles %d", cold, warm)
	if 2*warm > cold {
		t.Fatalf("Run after two collector cycles allocated %d objects, the first Run %d: the idle engine lost its session", warm, cold)
	}
}
