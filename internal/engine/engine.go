// Package engine orchestrates multi-CTA BitGen execution: it partitions
// regexes into CTA groups balanced by total character length (Section 7),
// lowers each group to a bitstream program, applies the configured
// optimization passes, executes every group on the simulated GPU, and
// aggregates counters into a modeled kernel time and throughput.
package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"bitgen/internal/arena"
	"bitgen/internal/bgerr"
	"bitgen/internal/bitstream"
	"bitgen/internal/charclass"
	"bitgen/internal/faultinject"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/kernel"
	"bitgen/internal/lower"
	"bitgen/internal/obs"
	"bitgen/internal/passes"
	"bitgen/internal/rx"
)

// DefaultMaxWhileIterations is the real default cap on global while-loop
// fixpoint iterations. It is far above anything a legitimate pattern needs
// (iteration counts track match lengths, not input sizes) while still
// bounding a pathological or adversarial spin. Configure -1 for the
// kernel's adaptive 2n+16 bound, or any positive value explicitly.
const DefaultMaxWhileIterations = 1 << 20

// Config selects the device, launch geometry and optimization set.
type Config struct {
	// Device is the GPU profile for time modeling; zero-value means
	// RTX 3090 (the paper's primary platform).
	Device gpusim.Device
	// Grid is the launch geometry; zero-value means the paper's default
	// (256 CTAs, 512 threads, 32-bit units).
	Grid gpusim.Grid
	// Mode is the execution model (the Table 3 ablation ladder).
	Mode kernel.Mode
	// ShiftRebalancing enables the Section 5 pass.
	ShiftRebalancing bool
	// MergeSize caps barrier merging; 0 disables merging (each shift
	// pays its own barrier pair). The effective value is clamped by the
	// device's shared-memory capacity.
	MergeSize int
	// ZeroBlockSkipping enables Section 6 guards.
	ZeroBlockSkipping bool
	// IntervalSize is ZBS's guard spacing; 0 means 8.
	IntervalSize int
	// KeepOutputs makes Run also retain full match streams in
	// Result.Outputs, for tests and cross-checks that compare whole streams;
	// the public engine reads Result.Matches and leaves it off.
	KeepOutputs bool
	// MaxWhileIterations caps global fixpoint loops. Zero selects
	// DefaultMaxWhileIterations; -1 selects the kernel's adaptive 2n+16
	// bound. Hitting the cap returns an error satisfying
	// errors.Is(err, bgerr.ErrLimit).
	MaxWhileIterations int
	// MaxProgramInstructions refuses compilation when any group's lowered
	// program exceeds this instruction count (0 = unlimited).
	MaxProgramInstructions int
	// MemoryBudgetBytes refuses a run whose materialized intermediate
	// bitstreams exceed this budget — the enforceable form of
	// Result.ExceedsDeviceMemory (0 = report-only, no enforcement).
	MemoryBudgetBytes int64
	// Inject is an optional fault injector (tests only). Nil never fires.
	Inject *faultinject.Injector
	// Obs, when non-nil, records compile and launch spans, aggregates
	// kernel counters into the metrics registry, and attaches a per-scan
	// Profile to every Result. Nil (the default) compiles to pointer
	// checks on the instrumented paths.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Device.Name == "" {
		c.Device = gpusim.RTX3090
	}
	if c.Grid == (gpusim.Grid{}) {
		c.Grid = gpusim.DefaultGrid()
	}
	if c.IntervalSize == 0 {
		c.IntervalSize = 8
	}
	switch {
	case c.MaxWhileIterations == 0:
		c.MaxWhileIterations = DefaultMaxWhileIterations
	case c.MaxWhileIterations < 0:
		c.MaxWhileIterations = 0 // kernel maps 0 to its adaptive 2n+16
	}
	return c
}

// BitGenDefault returns the full-optimization configuration (the paper's
// "BitGen" scheme with default parameters: merge size 8, interval size 8).
func BitGenDefault() Config {
	return Config{
		Mode:              kernel.ModeDTM,
		ShiftRebalancing:  true,
		MergeSize:         8,
		ZeroBlockSkipping: true,
		IntervalSize:      8,
	}
}

// Group is one CTA's compiled workload. The transformed bitstream program
// is resident only as Packed, the compact byte form (~10× smaller than the
// boxed pointer IR); Prog materializes it for execution.
type Group struct {
	// Packed is the program's packed byte form: the resident state and the
	// snapshot payload.
	Packed []byte
	// Outputs mirrors the program's output table so match fan-out and rank
	// tables never pay a decode.
	Outputs []ir.Output
	// Names lists the regexes assigned to this group.
	Names []string
	// Chars is the total pattern character length (the balancing key).
	Chars int
}

// Prog returns the group's program, decoding the packed form on demand.
// Each call materializes a fresh program, so callers own the result; decode
// cannot fail for bytes the engine packed itself.
func (g *Group) Prog() *ir.Program {
	return ir.MustDecodeProgram(g.Packed)
}

// SizeBytes measures the group's resident state: the packed program plus
// names and the output table.
func (g *Group) SizeBytes() int64 {
	sz := int64(len(g.Packed)) + 24
	for _, n := range g.Names {
		sz += 16 + int64(len(n))
	}
	for _, o := range g.Outputs {
		sz += 32 + int64(len(o.Name))
	}
	return sz
}

// Clone deep-copies the group so callers can hold it without aliasing the
// engine's internal state.
func (g *Group) Clone() Group {
	return Group{
		Packed:  append([]byte(nil), g.Packed...),
		Names:   append([]string(nil), g.Names...),
		Outputs: append([]ir.Output(nil), g.Outputs...),
		Chars:   g.Chars,
	}
}

// Engine is a compiled multi-regex matcher.
type Engine struct {
	cfg    Config
	groups []Group
	// shared lists the character classes several CTA groups use, as byte
	// sets in extended-basis slot order. It is the stored form (snapshots,
	// resident bytes); classes is what computes them: every scan session
	// evaluates it once per chunk over the raw basis and binds its outputs as
	// extended basis streams. Both are nil when no class is shared.
	shared  []charclass.Class
	classes *classEval
	// matchNames lists every output name across groups in ascending order;
	// a name's index is its rank, the integer stand-in for byte-wise string
	// comparison on the streaming hot path.
	matchNames []string
	// outRanks maps [group][output index] to the output's rank.
	outRanks [][]int32
	// PassStats aggregates what the optimization passes did.
	PassStats PassStats
	// runPool recycles the ScanSessions Run and streaming scans execute on;
	// runArena backs them so their retained buffers never imbalance
	// arena.Default. See initRunPool.
	runPool  *sync.Pool
	runArena *arena.Arena
}

// initMatchRanks precomputes the rank tables ScanSession's match merge
// uses. Output names are unique across groups (the public layer dedups
// patterns before compiling), so rank order is exactly (End, Pattern)
// string order without any per-match string comparison.
func (e *Engine) initMatchRanks() {
	for _, g := range e.groups {
		for _, o := range g.Outputs {
			e.matchNames = append(e.matchNames, o.Name)
		}
	}
	sort.Strings(e.matchNames)
	rankOf := make(map[string]int32, len(e.matchNames))
	for i, n := range e.matchNames {
		rankOf[n] = int32(i)
	}
	e.outRanks = make([][]int32, len(e.groups))
	for gi, g := range e.groups {
		ranks := make([]int32, len(g.Outputs))
		for oi, o := range g.Outputs {
			ranks[oi] = rankOf[o.Name]
		}
		e.outRanks[gi] = ranks
	}
}

// MatchNames returns every output name in rank order: ScanMatch.Rank
// indexes this slice. Callers must not mutate it.
func (e *Engine) MatchNames() []string { return append([]string(nil), e.matchNames...) }

// PassStats aggregates compile-time pass effects across groups.
type PassStats struct {
	Rewrites       int
	MergedGroups   int
	DedupedCopies  int
	ZeroPaths      int
	GuardsInserted int
}

// Result is the outcome of one Run.
type Result struct {
	// Matches lists every match in (End, Rank) order — (End, Pattern) order,
	// see Engine.MatchNames. A nullable regex's empty match at end-of-input
	// reports End == len(input). Nil from RunCounts.
	Matches []ScanMatch
	// Outputs holds full match streams when Config.KeepOutputs is set.
	Outputs map[string]*bitstream.Stream
	// MatchCounts maps each regex to its number of match end positions.
	MatchCounts map[string]int
	// TotalMatches sums MatchCounts.
	TotalMatches int64
	// Stats holds the per-CTA counters of the launch.
	Stats gpusim.KernelStats
	// Time is the modeled kernel time breakdown.
	Time gpusim.TimeBreakdown
	// ThroughputMBs is input MB (1e6 bytes) per modeled second.
	ThroughputMBs float64
	// Fallbacks counts overlap-limit fallbacks across CTAs.
	Fallbacks int
	// IntermediateFootprintBytes is the device memory the run's
	// materialized intermediate bitstreams would occupy across all CTAs.
	IntermediateFootprintBytes int64
	// ExceedsDeviceMemory flags configurations whose intermediates do not
	// fit the device — Section 3.2's reason for excluding sequential
	// execution from the paper's baseline comparison.
	ExceedsDeviceMemory bool
	// Profile joins the cost model with the per-kernel counters; non-nil
	// only when Config.Obs carries a metrics registry.
	Profile *gpusim.Profile
}

// Compile lowers and optimizes a regex set under the configuration.
func Compile(regexes []lower.Regex, cfg Config) (*Engine, error) {
	return CompileContext(context.Background(), regexes, cfg)
}

// CompileContext is Compile honoring a context (checked as each CTA group
// is claimed by a fanOut worker) and containing compiler panics: an
// invariant violation anywhere in the lower/passes pipeline surfaces as a
// *bgerr.InternalError naming the group's patterns instead of crashing the
// process. When several groups fail, the lowest one's error is returned.
func CompileContext(ctx context.Context, regexes []lower.Regex, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	if len(regexes) == 0 {
		return nil, fmt.Errorf("engine: no regexes")
	}
	start := time.Now()
	e := &Engine{cfg: cfg}
	// Simplify once: the shared-class count and every group's lowering walk
	// these trees, and rx.Simplify hands an already simple tree back as is.
	simple := make([]lower.Regex, len(regexes))
	for i, r := range regexes {
		simple[i] = lower.Regex{Name: r.Name, AST: rx.Simplify(r.AST)}
	}
	parts := partition(simple, cfg.Grid.CTAs)
	sharedCC := e.initShared(parts)
	// The groups are independent by construction (that is what lets the GPU
	// run them as separate CTAs): nothing in a group's output depends on which
	// worker compiled it or when.
	e.groups = make([]Group, len(parts))
	stats := make([]PassStats, len(parts))
	err := fanOut(len(parts), func(_, gi int) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return bgerr.Canceled(err)
			}
		}
		part := parts[gi]
		names := make([]string, len(part.regexes))
		for i, r := range part.regexes {
			names[i] = r.Name
		}
		prog, err := compileGroup(part.regexes, names, gi, cfg, &stats[gi], sharedCC)
		if err != nil {
			return err
		}
		// The compact byte form is the resident state; the boxed program
		// becomes garbage once sessions decode their own.
		e.groups[gi] = Group{Packed: ir.EncodeProgram(prog), Names: names, Chars: part.chars, Outputs: prog.Outputs}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range stats {
		e.PassStats.Rewrites += s.Rewrites
		e.PassStats.MergedGroups += s.MergedGroups
		e.PassStats.DedupedCopies += s.DedupedCopies
		e.PassStats.ZeroPaths += s.ZeroPaths
		e.PassStats.GuardsInserted += s.GuardsInserted
	}
	e.initMatchRanks()
	e.initRunPool()
	if reg := cfg.Obs.Reg(); reg != nil {
		reg.Histogram(obs.MCompileSeconds, obs.HCompileSeconds, obs.CompileSecondsBuckets).
			Observe(time.Since(start).Seconds())
		reg.Histogram(obs.MEngineResidentBytes, obs.HEngineResidentBytes, obs.ResidentBytesBuckets).
			Observe(float64(e.ResidentBytes()))
	}
	return e, nil
}

// maxSharedClasses caps the extended basis streams per engine: each shared
// class is one stream every scan session keeps and rewrites per chunk, one
// bit per input byte (8 MiB a 256 KiB chunk at the cap), so sharing is
// bounded to the classes that repay it most.
const maxSharedClasses = 256

// initShared selects the character classes worth computing once per scan —
// those expanded by at least two CTA groups — in deterministic first-use
// order, and compiles the evaluator producing their match streams.
// Single-group engines share nothing.
func (e *Engine) initShared(parts []part) map[charclass.Class]int {
	if len(parts) < 2 {
		return nil
	}
	// groups counts the parts expanding each class; last is the latest of
	// them, plus one, so a class repeated within a part counts once.
	type uses struct{ groups, last int }
	counts := make(map[charclass.Class]uses)
	var order []charclass.Class
	for pi, p := range parts {
		lower.EachClass(p.regexes, func(cl charclass.Class) {
			u := counts[cl]
			if u.last == pi+1 {
				return
			}
			if u.groups == 0 {
				order = append(order, cl)
			}
			counts[cl] = uses{u.groups + 1, pi + 1}
		})
	}
	var classes []charclass.Class
	for _, cl := range order {
		if counts[cl].groups >= 2 {
			classes = append(classes, cl)
			if len(classes) == maxSharedClasses {
				break
			}
		}
	}
	if len(classes) == 0 {
		return nil
	}
	e.shared, e.classes = classes, newClassEval(classes)
	slots := make(map[charclass.Class]int, len(classes))
	for i, cl := range classes {
		slots[cl] = i
	}
	return slots
}

// SharedClasses returns a copy of the shared classes in slot order, or nil
// when the engine shares none. Snapshots persist them.
func (e *Engine) SharedClasses() []charclass.Class {
	return slices.Clone(e.shared)
}

// Shared returns the shared classes as an IR program, one output per class
// named by its key, in slot order, or nil when the engine shares none. It is
// built on each call and nothing in the engine runs it: only the repo
// benchmark's ledger reads it, to lower groups against the same slots.
func (e *Engine) Shared() *ir.Program {
	if e.shared == nil {
		return nil
	}
	p, err := lower.SharedProgram(e.shared)
	if err != nil {
		panic(err) // a builder's program of plain classes is always valid
	}
	return p
}

// ResidentBytes measures the engine's durable compiled state: every group's
// stored program form, names and output tables, the shared classes' 32-byte
// sets and their evaluator's ops, and the rank tables. Transient scan state
// (scan sessions, pooled or not, and their arenas) is excluded — it exists
// only while scans run.
func (e *Engine) ResidentBytes() int64 {
	var sz int64 = 128
	for i := range e.groups {
		sz += e.groups[i].SizeBytes()
	}
	sz += 32 * int64(len(e.shared))
	if e.classes != nil {
		sz += classOpBytes * int64(len(e.classes.ops))
	}
	for _, n := range e.matchNames {
		sz += 16 + int64(len(n))
	}
	for _, r := range e.outRanks {
		sz += 24 + 4*int64(len(r))
	}
	return sz
}

// Restore reconstructs an Engine from previously compiled groups — the
// snapshot-load path. No lowering or passes run; the groups carry their
// already-transformed packed programs. Every program is decoded and
// re-validated so a snapshot that passed checksums but violates IR
// invariants is still refused before it can execute. shared lists the
// engine's shared classes in slot order: at most maxSharedClasses of them,
// and at least as many as any group's program reads as extended basis bits.
func Restore(cfg Config, groups []Group, shared []charclass.Class, ps PassStats) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("engine: no groups")
	}
	if len(shared) > maxSharedClasses {
		return nil, fmt.Errorf("engine: %d shared classes, at most %d", len(shared), maxSharedClasses)
	}
	e := &Engine{cfg: cfg, groups: groups, PassStats: ps}
	if len(shared) > 0 {
		e.shared, e.classes = shared, newClassEval(shared)
	}
	sess := make([]*kernel.Session, len(groups))
	err := fanOut(len(groups), func(_, i int) error {
		g := &groups[i]
		prog, err := ir.DecodeProgram(g.Packed)
		if err != nil {
			return fmt.Errorf("engine: restored group %d: %w", i, err)
		}
		if sess[i], err = kernel.Compile(prog, e.kernelConfig()); err != nil { // which validates it
			return fmt.Errorf("engine: restored group %d invalid: %w", i, err)
		}
		if prog.ExtBits > len(shared) {
			return fmt.Errorf("engine: restored group %d reads %d shared streams, %d classes are shared",
				i, prog.ExtBits, len(shared))
		}
		g.Outputs = prog.Outputs
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.initMatchRanks()
	e.initRunPool()
	// The groups are decoded and compiled once, here: they seed the pool, and
	// the loaded engine's first scan builds no kernel.
	e.runPool.Put(e.sessionOf(sess, 0, e.runArena))
	return e, nil
}

// compileGroup lowers and optimizes one CTA group's regexes, converting
// any panic in the pipeline into a typed internal error. sharedCC maps every
// class the engine shares to its extended basis slot.
func compileGroup(regexes []lower.Regex, names []string, gi int, cfg Config, ps *PassStats,
	sharedCC map[charclass.Class]int) (prog *ir.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			prog = nil
			err = &bgerr.InternalError{
				Op: "compile", Group: gi, Patterns: names,
				Value: r, Stack: debug.Stack(),
			}
		}
	}()
	lane := groupLane(cfg.Obs, gi) // groups compile concurrently: their spans must not share a track
	gspan := cfg.Obs.Span("compile", "compile-group", lane).
		Arg("group", gi).Arg("patterns", len(names))
	defer gspan.End()
	prog, err = lower.Group(regexes, lower.Options{Obs: cfg.Obs, Lane: lane, SharedCC: sharedCC, SharedExtBits: len(sharedCC)})
	if err != nil {
		return nil, err
	}
	if n := ir.CollectStats(prog).Total(); cfg.MaxProgramInstructions > 0 && n > cfg.MaxProgramInstructions {
		return nil, fmt.Errorf("engine: group %d: %w", gi,
			&bgerr.LimitError{Limit: "program-instructions", Value: int64(n), Max: int64(cfg.MaxProgramInstructions)})
	}
	pspan := cfg.Obs.Span("compile", "passes", lane).Arg("group", gi)
	if cfg.ShiftRebalancing {
		r := passes.Rebalance(prog, passes.RebalanceOptions{})
		ps.Rewrites += r.Rewrites
		pspan.Arg("rewrites", r.Rewrites)
	}
	if cfg.MergeSize > 0 {
		ms := clampMergeSize(cfg)
		sched := passes.MergeBarriers(prog, passes.MergeOptions{MergeSize: ms})
		ps.MergedGroups += len(sched.Groups)
		ps.DedupedCopies += sched.DedupedCopies
		pspan.Arg("merged_groups", len(sched.Groups))
	}
	if cfg.ZeroBlockSkipping {
		z := passes.InsertGuards(prog, passes.ZBSOptions{Interval: cfg.IntervalSize})
		ps.ZeroPaths += z.PathsFound
		ps.GuardsInserted += z.GuardsInserted
		pspan.Arg("guards_inserted", z.GuardsInserted)
	}
	pspan.End()
	if err := ir.Validate(prog); err != nil {
		return nil, fmt.Errorf("engine: pass pipeline produced invalid program: %w", err)
	}
	return prog, nil
}

// groupLane is CTA group gi's trace lane — 1+gi, lane 0 being the pipeline's —
// labelled for the trace viewer when tracing is on.
func groupLane(o *obs.Observer, gi int) int {
	if o.Tracing() {
		o.NameLane(1+gi, fmt.Sprintf("kernel/group-%d", gi))
	}
	return 1 + gi
}

// clampMergeSize bounds the merge size by shared-memory capacity: each
// merged stream needs one T×W-bit tile resident.
func clampMergeSize(cfg Config) int {
	tile := cfg.Grid.Threads * cfg.Grid.UnitBits / 8
	maxStreams := cfg.Device.SharedMemPerCTA / tile
	if maxStreams < 1 {
		maxStreams = 1
	}
	if cfg.MergeSize > maxStreams {
		return maxStreams
	}
	return cfg.MergeSize
}

// Groups returns a deep copy of the compiled groups (experiments inspect
// them; snapshots persist them). Mutating the result never touches the
// engine's internal state or in-flight sessions.
func (e *Engine) Groups() []Group {
	out := make([]Group, len(e.groups))
	for i := range e.groups {
		out[i] = e.groups[i].Clone()
	}
	return out
}

// Stored returns the compiled groups and the shared classes as the engine
// holds them, not copies, for a snapshot to write out. Callers must not
// modify them.
func (e *Engine) Stored() ([]Group, []charclass.Class) { return e.groups, e.shared }

// WithInjector returns a shallow copy of the engine whose runs consult the
// given fault injector (the compiled groups are shared; a compiled Engine
// is immutable). Hardening and pipeline tests use it to arm faults on an
// already-compiled engine without re-running the pipeline.
func (e *Engine) WithInjector(inj *faultinject.Injector) *Engine {
	ne := *e
	ne.cfg.Inject = inj
	// Pooled sessions capture the injector inside their kernel sessions; the
	// copy must build its own, not share armed-or-not state with e.
	ne.initRunPool()
	return &ne
}

type part struct {
	regexes []lower.Regex
	chars   int
}

// partition splits regexes into at most n groups with similar total
// character length (greedy longest-processing-time bin packing).
func partition(regexes []lower.Regex, n int) []part {
	if n > len(regexes) {
		n = len(regexes)
	}
	order := make([]int, len(regexes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(regexes[order[a]].Name) > len(regexes[order[b]].Name)
	})
	parts := make([]part, n)
	for _, idx := range order {
		best := 0
		for g := 1; g < n; g++ {
			if parts[g].chars < parts[best].chars {
				best = g
			}
		}
		parts[best].regexes = append(parts[best].regexes, regexes[idx])
		parts[best].chars += len(regexes[idx].Name)
	}
	out := parts[:0]
	for _, p := range parts {
		if len(p.regexes) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// Run executes the compiled engine over an input and models its time.
// Groups execute concurrently on host CPUs (the simulation is functional;
// the modeled time comes from the counters, not the host clock).
func (e *Engine) Run(input []byte) (*Result, error) {
	return e.RunContext(context.Background(), input)
}

// RunContext is Run honoring a context. Cancellation is observed at the
// group-dispatch boundary and, inside each kernel, at block-window and
// while-iteration boundaries; a canceled run returns an error satisfying
// errors.Is(err, bgerr.ErrCanceled). A panic inside one CTA group's kernel
// is contained: it surfaces as a *bgerr.InternalError carrying the group
// index, its pattern names and the stack, while other groups (and other
// concurrent runs on this immutable Engine) are unaffected.
func (e *Engine) RunContext(ctx context.Context, input []byte) (*Result, error) {
	return e.run(ctx, e.cfg.Obs.For(ctx), input, true)
}

// RunCounts is RunContext without materializing anything per match: no
// Result.Matches and, regardless of Config.KeepOutputs, no match streams.
// The session's outputs are only counted, which is what makes
// counts-only scans cheaper than full runs on match-dense inputs.
func (e *Engine) RunCounts(ctx context.Context, input []byte) (*Result, error) {
	return e.run(ctx, e.cfg.Obs.For(ctx), input, false)
}

// run is the one-shot entry into the chunk executor: the whole input is one
// chunk on a pooled ScanSession, launched group-parallel. collect selects
// whether matches (and, under Config.KeepOutputs, streams) are copied out
// of the session before it returns to the pool. o is the observer the public
// caller resolved for this call (Observer.For).
func (e *Engine) run(ctx context.Context, o *obs.Observer, input []byte, collect bool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ss, err := e.GetSession(o, 0, true)
	if err != nil {
		return nil, err
	}
	if err := ss.execute(ctx, input, true); err != nil {
		e.PutSession(ss) // which drops it unless err is a cancellation
		return nil, err
	}
	res := &Result{
		MatchCounts: make(map[string]int),
		Stats: gpusim.KernelStats{
			PerCTA:         append([]gpusim.CTAStats(nil), ss.stats...),
			InputBytes:     int64(len(input)),
			TransposeBytes: ss.basis.BytesMoved(),
		},
	}
	keepOutputs := collect && e.cfg.KeepOutputs
	if keepOutputs {
		res.Outputs = make(map[string]*bitstream.Stream)
	}
	var nullRanks []int32
	for gi, outs := range ss.outs {
		res.Fallbacks += ss.sess[gi].Fallbacks()
		// Walk the program's output table: it carries the Nullable flag, and
		// nullable regexes own one extra match — the empty match at the
		// end-of-input offset, which sits one position past the kernel's
		// input-length streams. The session's outputs align with this table.
		counts := ss.sess[gi].Counts()
		for oi, o := range e.groups[gi].Outputs {
			n := counts[oi]
			if o.Nullable {
				n++
				nullRanks = append(nullRanks, e.outRanks[gi][oi])
			}
			res.MatchCounts[o.Name] = n
			res.TotalMatches += int64(n)
			if keepOutputs {
				s := outs[oi].Stream(len(input))
				if o.Nullable {
					s = s.Extend(1)
					s.Set(s.Len() - 1)
				}
				res.Outputs[o.Name] = s
			}
		}
	}
	if collect {
		// The merged ScanMatch values hold no reference into the session.
		// The end-of-input matches go after the merge: their offset is past
		// every stream bit, so in rank order they sort last by construction.
		res.Matches = ss.mergeMatches(0, 0, make([]ScanMatch, 0, res.TotalMatches+1)) // +1: the collector's spare slot
		slices.Sort(nullRanks)
		for _, rank := range nullRanks {
			res.Matches = append(res.Matches, ScanMatch{End: int64(len(input)), Rank: rank})
		}
	}
	res.IntermediateFootprintBytes, err = ss.checkBudget(len(input))
	// Every session-owned output has been counted or copied: the session can
	// serve the next call (unless a fallback made it non-fresh; see PutSession).
	ss.clearOuts()
	e.PutSession(ss)
	if err != nil {
		return nil, err
	}
	espan := o.Span("scan", "estimate", 0)
	res.Time = gpusim.EstimateTime(e.cfg.Device, e.cfg.Grid, &res.Stats)
	res.ThroughputMBs = gpusim.ThroughputMBs(res.Stats.InputBytes, res.Time.TotalSec)
	espan.Arg("modeled_sec", res.Time.TotalSec).End()
	res.ExceedsDeviceMemory = float64(res.IntermediateFootprintBytes) > e.cfg.Device.MemoryGB*1e9
	if o.Reg() != nil {
		names := make([][]string, len(e.groups))
		for gi := range e.groups {
			names[gi] = e.groups[gi].Names
		}
		res.Profile = gpusim.BuildProfile(e.cfg.Device, &res.Stats, res.Time, res.ThroughputMBs, names)
	}
	return res, nil
}
