// Package bitgen is a multi-pattern regular-expression matching engine
// built on interleaved bitstream execution, a Go reproduction of the
// MICRO 2025 paper "Interleaved Bitstream Execution for Multi-Pattern Regex
// Matching on GPUs".
//
// Patterns are compiled Parabix-style into bitstream programs — sequences
// of bitwise operations, shifts and carry smears over one-bit-per-byte
// streams — and executed block-wise on a functional GPU simulator that
// models the paper's CTA execution: dependency-aware thread-data mapping
// with overlap recomputation, shift-rebalanced barrier schedules, and
// zero-block skipping. Match results are exact; reported times and
// throughputs come from the simulator's calibrated cost model (see
// DESIGN.md for the substitution rationale).
//
// Quick start:
//
//	eng, err := bitgen.Compile([]string{"a(bc)*d", "error:.*timeout"}, nil)
//	res, err := eng.Run(input)
//	for _, m := range res.Matches { fmt.Println(m.Pattern, m.End) }
//
// Hardening: every entry point fails structured instead of fatal. Each
// call has a *Context variant (CompileContext, RunContext,
// CountOnlyContext, ScanReaderContext) whose cancellation or deadline
// interrupts execution at safe boundaries and returns ErrCanceled.
// Options.Limits bounds input size, pattern count, compiled program size,
// while-loop iterations and device-memory footprint; violations return
// errors matching ErrLimit. Engine invariant violations (panics) are
// contained and surface as *InternalError with the poisoned CTA group's
// patterns attached — the process and the Engine itself survive. See
// errors.go for the full taxonomy and DESIGN.md §8 for the failure model.
package bitgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"bitgen/internal/arena"
	"bitgen/internal/bgerr"
	"bitgen/internal/engine"
	"bitgen/internal/gpusim"
	"bitgen/internal/lower"
	"bitgen/internal/nfa"
	"bitgen/internal/obs"
	"bitgen/internal/rx"
)

// Options configure compilation. The zero value (or a nil pointer) gives
// the paper's default full-optimization configuration on the RTX 3090
// profile.
type Options struct {
	// FoldCase makes matching ASCII case-insensitive.
	FoldCase bool
	// Device selects the GPU profile by name: "RTX 3090" (default),
	// "H100 NVL", or "L40S".
	Device string
	// Limits bounds resource use; the zero value applies the documented
	// defaults (see Limits). Violations return errors satisfying
	// errors.Is(err, ErrLimit).
	Limits Limits
	// Resilience, when non-nil, pins Run and CountOnly to the NFA
	// reference and names it in Result.Backend. Its one production caller
	// is the repo benchmark's oracle. See ResilienceOptions.
	Resilience *ResilienceOptions
	// Observability, when non-nil, enables scan tracing and/or metrics
	// collection (see ObservabilityOptions, Engine.WriteTrace,
	// Engine.MetricsSnapshot, Engine.WritePrometheus). Nil — the default
	// — compiles every instrumentation hook down to a pointer check.
	Observability *ObservabilityOptions

	// ctas and threads override the CTA count (default 256) and CTA size
	// (default 512). Only package tests set them, to reach few groups and
	// small blocks (loops and carries that cross them, the overlap
	// fallback); the paper's launch geometry lives on engine.Config.Grid.
	ctas, threads int
}

// Default resource limits, applied when the corresponding Limits field is
// zero.
const (
	DefaultMaxInputBytes          = 1 << 30 // 1 GiB per run
	DefaultMaxPatterns            = 4096
	DefaultMaxProgramInstructions = 1 << 20 // per CTA group
)

// Limits bounds the resources one Engine may consume. For each field the
// zero value selects the documented default and a negative value disables
// the check (a negative MaxWhileIterations selects the adaptive 2n+16 bound);
// exceeding an effective limit returns a *LimitError matching ErrLimit.
type Limits struct {
	// MaxInputBytes caps the input size of one Run/CountOnly call (and
	// each ScanReader chunk). Default DefaultMaxInputBytes.
	MaxInputBytes int64
	// MaxPatterns caps the pattern count per Compile. Default
	// DefaultMaxPatterns.
	MaxPatterns int
	// MaxProgramInstructions caps any single CTA group's lowered
	// bitstream program. Default DefaultMaxProgramInstructions.
	MaxProgramInstructions int
	// MaxWhileIterations caps global while-loop fixpoint iterations
	// during execution — the safety net against pathological or
	// adversarial spins. Zero selects the engine's real default
	// (1<<20); negative selects the adaptive 2n+16 bound.
	MaxWhileIterations int
	// MaxDeviceMemoryBytes caps the materialized intermediate-bitstream
	// footprint of one run. Zero enforces the selected device's memory
	// capacity — the enforceable form of the ExceedsDeviceMemory flag;
	// negative disables enforcement (report-only).
	MaxDeviceMemoryBytes int64
}

// withDefaults resolves zero fields against the documented defaults and
// the selected device's memory capacity.
func (l Limits) withDefaults(dev gpusim.Device) Limits {
	if l.MaxInputBytes == 0 {
		l.MaxInputBytes = DefaultMaxInputBytes
	}
	if l.MaxPatterns == 0 {
		l.MaxPatterns = DefaultMaxPatterns
	}
	if l.MaxProgramInstructions == 0 {
		l.MaxProgramInstructions = DefaultMaxProgramInstructions
	}
	if l.MaxDeviceMemoryBytes == 0 {
		l.MaxDeviceMemoryBytes = int64(dev.MemoryGB * 1e9)
	}
	return l
}

// Match reports one match: the pattern at Index in Engine.Patterns()
// matched the input ending at byte offset End (inclusive; a nullable
// pattern's empty match at end-of-input reports End == len(input)).
// All-match semantics: every distinct end position of every pattern entry
// is reported once. Duplicate pattern strings in the compiled set are
// distinct entries — each duplicate reports its own Match, distinguished
// by Index; Pattern carries the source string for compatibility.
type Match struct {
	Pattern string
	Index   int
	End     int
}

// Stats summarizes one run's modeled execution.
type Stats struct {
	// ModeledTime is the simulated kernel time on the selected device.
	ModeledTime time.Duration
	// ThroughputMBs is input megabytes (1e6 bytes) per modeled second.
	ThroughputMBs float64
	// DRAMReadBytes / DRAMWriteBytes are total global-memory traffic.
	DRAMReadBytes, DRAMWriteBytes int64
	// Barriers is the total CTA synchronization count.
	Barriers int64
	// RecomputePercent is the dependency-aware mapping overhead.
	RecomputePercent float64
	// GuardSkips counts taken zero-block guards.
	GuardSkips int64
}

// Result is the outcome of Engine.Run.
type Result struct {
	// Matches lists every (pattern, end-position) pair, ordered by end
	// position, then pattern string (byte order), then pattern index.
	Matches []Match
	// Counts maps each pattern string to its number of match end
	// positions, summed across duplicate entries of the same string.
	Counts map[string]int
	// IndexCounts maps each pattern index (into Engine.Patterns()) to its
	// number of match end positions — the per-entry view that keeps
	// duplicate patterns distinguishable.
	IndexCounts []int
	// Stats is the modeled execution summary. Zero on an engine pinned to
	// the NFA reference: only the bitstream engine models GPU execution.
	Stats Stats
	// Backend is BackendNFA on an engine Options.Resilience pinned, empty
	// otherwise. Its one production reader is the repo benchmark's oracle.
	Backend string
	// Profile is the per-scan profile artifact joining the cost-model
	// time breakdown with observed per-kernel counters. Non-nil only
	// when Options.Observability enables metrics and the bitstream
	// engine served the call.
	Profile *Profile
}

// Engine is a compiled multi-pattern matcher. A compiled Engine is
// immutable: Run, CountOnly and ScanReader may be called concurrently
// from multiple goroutines, and an error from one call (including a
// contained *InternalError) leaves the Engine usable.
type Engine struct {
	inner    *engine.Engine
	patterns []string
	// indexesOf maps each distinct pattern string to its public indexes in
	// patterns, ascending: duplicate entries share one compiled regex
	// (identical pattern strings always have identical match sets) and
	// results fan back out per public index.
	indexesOf map[string][]int
	// rankIndexes is indexesOf keyed by the inner engine's match rank
	// instead of the pattern string — Run and the streaming emit stage fan
	// out on the integer, skipping a map lookup per match; rankNames is the
	// pattern string of a rank, which is all an engine match record carries.
	rankIndexes [][]int
	rankNames   []string
	// nullable lists the unique patterns that match the empty string;
	// ScanReader refuses them (an empty match "ends" at every stream
	// offset, which has no useful streaming semantics).
	nullable []string
	limits   Limits
	// maxLen is the longest possible match length across all patterns,
	// computed once at compile time for ScanReader's overlap; unbounded
	// lists every pattern with no finite bound (streaming refusal).
	maxLen    int
	unbounded []string
	// ref is the NFA Options.Resilience pinned Run and CountOnly to; nil
	// when the bitstream engine serves.
	ref *nfa.NFA
	// obs carries the engine's own span ring and metrics registry; nil when
	// Options.Observability was not set (every hook is nil-safe).
	obs *obs.Observer
	// scanWorkers is how many chunk workers ScanReader runs; <=0 means one
	// per host core (runtime.NumCPU). Only package tests set it.
	scanWorkers int
	// scanArena overrides the pipelined scanner's buffer pool; nil selects
	// arena.Default. Tests set it to assert get/put balance.
	scanArena *arena.Arena
	// foldCase and optsHash record the compile-time options for snapshot
	// persistence: SaveEngine embeds them so LoadEngine can refuse a
	// snapshot compiled under a different configuration.
	foldCase bool
	optsHash string
}

// Compile parses and compiles the patterns. A nil opts selects defaults.
//
// Supported syntax is the paper's grammar: literals, '.', classes
// ('[a-f]', '[^x]', '\d', '\w', '\s'), grouping, alternation, and the
// postfix operators '*', '+', '?', '{n}', '{n,}', '{n,m}'. Anchors and
// backreferences are not supported.
func Compile(patterns []string, opts *Options) (*Engine, error) {
	return CompileContext(context.Background(), patterns, opts)
}

// CompileContext is Compile honoring a context: cancellation is observed
// between patterns and between CTA groups, and any panic inside the
// compilation pipeline is contained as a *InternalError naming the
// offending group's patterns.
func CompileContext(ctx context.Context, patterns []string, opts *Options) (*Engine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts == nil {
		opts = &Options{}
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("bitgen: no patterns")
	}
	dev, err := resolveDevice(opts)
	if err != nil {
		return nil, err
	}
	limits := opts.Limits.withDefaults(dev)
	if limits.MaxPatterns > 0 && len(patterns) > limits.MaxPatterns {
		return nil, &LimitError{Limit: "patterns", Value: int64(len(patterns)), Max: int64(limits.MaxPatterns)}
	}
	observer := opts.Observability.observer()
	cspan := observer.Span("compile", "compile", 0).Arg("patterns", len(patterns))
	defer cspan.End()
	// Duplicate pattern strings compile once: identical patterns always
	// have identical match sets, so the engine runs the unique set and
	// results fan back out to every public index afterwards.
	regexes := make([]lower.Regex, 0, len(patterns))
	var unbounded, nullable []string
	indexesOf := make(map[string][]int, len(patterns))
	maxLen := 0
	pspan := observer.Span("compile", "parse", 0)
	for i, p := range patterns {
		if err := ctx.Err(); err != nil {
			return nil, bgerr.Canceled(err)
		}
		if _, seen := indexesOf[p]; seen {
			indexesOf[p] = append(indexesOf[p], i)
			continue
		}
		indexesOf[p] = []int{i}
		ast, err := rx.ParseWith(p, rx.Options{FoldCase: opts.FoldCase})
		if err != nil {
			return nil, err
		}
		regexes = append(regexes, lower.Regex{Name: p, AST: ast})
		// Cache the streaming bound and nullability now — ScanReader must
		// not re-parse.
		if l := rx.MaxLength(ast); l == rx.Unbounded {
			unbounded = append(unbounded, p)
		} else if l > maxLen {
			maxLen = l
		}
		if rx.MatchesEmpty(ast) {
			nullable = append(nullable, p)
		}
	}
	pspan.End()
	cfg := buildEngineConfig(opts, dev, limits, observer)
	inner, err := engine.CompileContext(ctx, regexes, cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		inner:     inner,
		patterns:  patterns,
		indexesOf: indexesOf, nullable: nullable,
		limits: limits,
		maxLen: maxLen, unbounded: unbounded,
		obs:      observer,
		foldCase: opts.FoldCase,
		optsHash: optionsHash(opts),
	}
	e.initRankIndexes()
	if err := e.pinNFA(opts.Resilience, regexes); err != nil {
		return nil, err
	}
	return e, nil
}

// initRankIndexes aligns the duplicate-index fan-out with the inner
// engine's rank order so match fan-out can index a slice instead of
// hashing pattern strings.
func (e *Engine) initRankIndexes() {
	e.rankNames = e.inner.MatchNames()
	e.rankIndexes = make([][]int, len(e.rankNames))
	for rank, name := range e.rankNames {
		e.rankIndexes[rank] = e.indexesOf[name]
	}
}

// resolveDevice maps Options.Device to a simulator profile.
func resolveDevice(opts *Options) (gpusim.Device, error) {
	if opts.Device == "" {
		return gpusim.RTX3090, nil
	}
	d, err := gpusim.DeviceByName(opts.Device)
	if err != nil {
		return gpusim.Device{}, &UnsupportedError{Feature: fmt.Sprintf("device %q", opts.Device)}
	}
	return d, nil
}

// buildEngineConfig translates public Options into the internal engine
// configuration. CompileContext and LoadEngine share it, so a loaded
// snapshot executes under exactly the configuration a fresh compile would.
func buildEngineConfig(opts *Options, dev gpusim.Device, limits Limits, observer *obs.Observer) engine.Config {
	cfg := engine.BitGenDefault()
	cfg.Device = dev
	grid := gpusim.DefaultGrid()
	if opts.ctas > 0 {
		grid.CTAs = opts.ctas
	}
	if opts.threads > 0 {
		grid.Threads = opts.threads
	}
	cfg.Grid = grid
	if limits.MaxProgramInstructions > 0 {
		cfg.MaxProgramInstructions = limits.MaxProgramInstructions
	}
	cfg.MaxWhileIterations = limits.MaxWhileIterations
	if limits.MaxDeviceMemoryBytes > 0 {
		cfg.MemoryBudgetBytes = limits.MaxDeviceMemoryBytes
	}
	cfg.Obs = observer
	return cfg
}

// PatternSetKey returns a content hash identifying a compiled pattern set:
// the pattern list as given — order and duplicates included, since
// Match.Index and Result.IndexCounts number the entries — and every Options
// field that changes the compiled engine (syntax flags, device, limits).
// Two (patterns, opts) pairs with equal keys compile to engines with
// identical results, so serving layers use the key to share one cached
// *Engine across identical requests.
func PatternSetKey(patterns []string, opts *Options) string {
	if opts == nil {
		opts = &Options{}
	}
	h := sha256.New()
	// v5: under FoldCase a bracket class folds before it negates, so a
	// negated class compiles to a different program than under v4.
	hashField(h, "bitgen-pattern-set-v5")
	for _, p := range patterns {
		hashField(h, p)
	}
	hashCompileOptions(h, opts)
	// The literal stands where a per-engine worker count was hashed before
	// it stopped being an option, so keys, snapshot names and ring
	// placement did not move.
	hashField(h, "0")
	return hex.EncodeToString(h.Sum(nil))
}

// MustCompile is Compile that panics on error, for static pattern tables.
func MustCompile(patterns []string, opts *Options) *Engine {
	e, err := Compile(patterns, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// Patterns returns the compiled pattern sources. The slice is a copy:
// mutating it cannot corrupt the engine's duplicate-index fan-out.
func (e *Engine) Patterns() []string { return append([]string(nil), e.patterns...) }

// ResidentBytes reports the measured bytes of durable compiled state this
// engine keeps resident: packed group programs, output tables,
// the shared character-class program, and — when pinned to the NFA
// reference — the NFA's tables. Transient per-scan buffers are
// excluded. This is the value the serve layer's cache charges per engine.
func (e *Engine) ResidentBytes() int64 {
	n := e.inner.ResidentBytes()
	if e.ref != nil {
		n += e.ref.SizeBytes()
	}
	return n
}

// Explain returns a human-readable compilation report: per-CTA-group
// instruction mixes, overlap distances, barrier schedules and guard
// counts.
func (e *Engine) Explain() string { return e.inner.Explain().String() }

// checkInput enforces the per-run input-size limit.
func (e *Engine) checkInput(input []byte) error {
	if e.limits.MaxInputBytes > 0 && int64(len(input)) > e.limits.MaxInputBytes {
		return &LimitError{Limit: "input-bytes", Value: int64(len(input)), Max: e.limits.MaxInputBytes}
	}
	return nil
}

// fanOutCounts expands per-unique-pattern match counts into the public
// views: the per-string map sums across duplicate entries of the same
// pattern, the per-index slice keeps each entry's own count.
func (e *Engine) fanOutCounts(inner map[string]int) (map[string]int, []int) {
	counts := make(map[string]int, len(inner))
	idxCounts := make([]int, len(e.patterns))
	for name, c := range inner {
		idxs := e.indexesOf[name]
		counts[name] = c * len(idxs)
		for _, idx := range idxs {
			idxCounts[idx] = c
		}
	}
	return counts, idxCounts
}

// toResult converts an internal run result to the public form, fanning
// each unique pattern's matches out to every duplicate index, ascending.
// inner.Matches arrives in (End, rank) order and ranks follow the byte order
// of the pattern strings, so the fan-out is already in (End, Pattern, Index)
// order — the same walk the streaming emit stage does per chunk.
func (e *Engine) toResult(inner *engine.Result) *Result {
	res := &Result{}
	res.Counts, res.IndexCounts = e.fanOutCounts(inner.MatchCounts)
	total := 0
	for _, c := range res.IndexCounts {
		total += c
	}
	if total > 0 {
		res.Matches = make([]Match, 0, total)
	}
	for _, m := range inner.Matches {
		for _, idx := range e.rankIndexes[m.Rank] {
			res.Matches = append(res.Matches, Match{Pattern: e.rankNames[m.Rank], Index: idx, End: int(m.End)})
		}
	}
	stats := inner.Stats.Total()
	res.Stats = Stats{
		ModeledTime:      time.Duration(inner.Time.TotalSec * float64(time.Second)),
		ThroughputMBs:    inner.ThroughputMBs,
		DRAMReadBytes:    stats.DRAMReadBytes,
		DRAMWriteBytes:   stats.DRAMWriteBytes,
		Barriers:         stats.Barriers,
		RecomputePercent: stats.RecomputePercent(),
		GuardSkips:       stats.GuardSkips,
	}
	res.Profile = inner.Profile
	return res
}

// Run scans the input and returns every match with modeled execution
// statistics.
func (e *Engine) Run(input []byte) (*Result, error) {
	return e.RunContext(context.Background(), input)
}

// RunContext is Run honoring a context: a caller deadline or cancellation
// interrupts execution at block-window and while-loop boundaries and
// returns an error satisfying errors.Is(err, ErrCanceled). A panic inside
// one CTA group is contained as a *InternalError; the Engine remains
// usable afterwards.
func (e *Engine) RunContext(ctx context.Context, input []byte) (*Result, error) {
	if err := e.checkInput(input); err != nil {
		return nil, err
	}
	start := time.Now()
	span := e.obs.For(ctx).Span("scan", "run", 0).Arg("input_bytes", len(input))
	res, err := e.runContext(ctx, input)
	if err != nil {
		span.Arg("error", err.Error()).End()
		e.observeScan(start, len(input), 0, err)
		return nil, err
	}
	span.Arg("matches", len(res.Matches)).End()
	e.observeScan(start, len(input), len(res.Matches), nil)
	return res, nil
}

// runContext runs one scan on the bitstream engine, or on the pinned NFA.
func (e *Engine) runContext(ctx context.Context, input []byte) (*Result, error) {
	var inner *engine.Result
	var err error
	if e.ref != nil {
		inner, err = e.runNFA(ctx, input)
	} else {
		inner, err = e.inner.RunContext(ctx, input)
	}
	if err != nil {
		return nil, err
	}
	res := e.toResult(inner)
	if e.ref != nil {
		res.Backend = BackendNFA
	}
	return res, nil
}

// CountOnly scans the input and returns only per-pattern match counts.
// Unlike Run, no match list is materialized — each group's output stream
// is only counted — so it is cheaper than Run on match-dense inputs when
// positions are not needed.
func (e *Engine) CountOnly(input []byte) (map[string]int, error) {
	return e.CountOnlyContext(context.Background(), input)
}

// CountOnlyContext is CountOnly honoring a context (see RunContext). On
// an engine pinned to the NFA reference the NFA's matches are counted.
func (e *Engine) CountOnlyContext(ctx context.Context, input []byte) (map[string]int, error) {
	if err := e.checkInput(input); err != nil {
		return nil, err
	}
	start := time.Now()
	span := e.obs.For(ctx).Span("scan", "count-only", 0).Arg("input_bytes", len(input))
	counts, err := e.countOnlyContext(ctx, input)
	if err != nil {
		span.Arg("error", err.Error()).End()
		e.observeScan(start, len(input), 0, err)
		return nil, err
	}
	matches := 0
	for _, n := range counts {
		matches += n
	}
	span.Arg("matches", matches).End()
	e.observeScan(start, len(input), matches, nil)
	return counts, nil
}

func (e *Engine) countOnlyContext(ctx context.Context, input []byte) (map[string]int, error) {
	var res *engine.Result
	var err error
	if e.ref != nil {
		res, err = e.runNFA(ctx, input)
	} else {
		res, err = e.inner.RunCounts(ctx, input)
	}
	if err != nil {
		return nil, err
	}
	counts, _ := e.fanOutCounts(res.MatchCounts)
	return counts, nil
}
