package kernel

import (
	"context"
	"errors"
	"maps"

	"bitgen/internal/arena"
	"bitgen/internal/bitstream"
	"bitgen/internal/dfg"
	"bitgen/internal/faultinject"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/obs"
	"bitgen/internal/transpose"
)

// Session is one CTA group's kernel as a scan launches it: the group's
// compiled form, built once by Compile and run by any Executor, plus the
// outputs and counts of its last run. The compiled form is immutable, so the
// workers of a scan share it; the mutable state of a run — register file,
// window scratch, global streams — is the Executor's, sized to the largest
// program it has run and reused by every group it launches. A session that
// takes an overlap fallback swaps in a private re-plan of its group as the
// compiled form it embeds; the one it shared stays as it was.
//
// A Session is NOT safe for concurrent use: one group runs on one executor at
// a time. The outputs returned by Run alias session-owned buffers; they are
// valid, read-only, until the session's next Run.
type Session struct {
	*compiled
	cfg    Config              // as given; per-run defaults derived from each basis
	outs   []bitstream.Compact // reused result slice, aligned with prog.Outputs
	counts []int               // the set bits of each of outs
}

// compiled is a program compiled for launch: the plan, liveness, prologue
// load marks and every fused segment's analysis, live-out set and superblock
// program — the barrier-merge schedule baked into its µops — built eagerly in
// one pass and read-only afterwards.
type compiled struct {
	prog          *ir.Program
	pl            *plan
	materialize   map[ir.Stmt]bool // loops and carries on the fallback path; nil for none
	isMat, isOut  []bool
	nsrcs         []int32 // distinct shift sources of each barrier-merge group
	intermediates int
	loops         int
	staticDelta   int64
	// loadBit[v] > 0 marks v a class prologue's load of basis stream
	// loadBit[v]-1, charged at its pair and bound on first read
	// (Executor.bind); 0 for any other.
	loadBit []int32
	// drop[i] are the non-output globals top-level plan node i touches last:
	// the executor returns their words after it.
	drop [][]ir.VarID
}

// Compile validates the program and compiles it for cfg.Mode.
func Compile(p *ir.Program, cfg Config) (*Session, error) {
	if err := cfg.withDefaults(1).Grid.Validate(); err != nil {
		return nil, err
	}
	if err := ir.Validate(p); err != nil {
		return nil, err
	}
	return &Session{
		compiled: compile(p, cfg.Mode, nil),
		cfg:      cfg,
		outs:     make([]bitstream.Compact, len(p.Outputs)),
		counts:   make([]int, len(p.Outputs)),
	}, nil
}

// compile builds the compiled form of p with the loops and carries of
// materialize on the fallback path.
func compile(p *ir.Program, mode Mode, materialize map[ir.Stmt]bool) *compiled {
	k := &compiled{prog: p, materialize: materialize, pl: buildPlan(p.Stmts, mode, materialize)}
	c := newSBCompiler(k)
	defer c.done()
	k.isMat, k.isOut, k.intermediates = liveness(k.pl, p, c.seen)
	k.loops, k.loadBit = k.pl.countLoops(), make([]int32, p.NumVars)
	c.compilePlan(k.pl)
	if c.whole {
		k.staticDelta = int64(c.an.StaticDelta) // the program is its one segment
	} else {
		k.staticDelta = int64(dfg.Analyze(p).StaticDelta)
	}
	k.drop = lastTouches(k, c.seen)
	return k
}

// SetTrace makes later Runs record through o on lane: pooled sessions change hands.
func (s *Session) SetTrace(o *obs.Observer, lane int) { s.cfg.Obs, s.cfg.TraceLane = o, lane }

// Fallbacks reports how many loops/carries have been pushed onto the
// materialized fallback path over the session's lifetime (RunResult's
// FallbackSegments equivalent; fallbacks persist across runs).
func (s *Session) Fallbacks() int { return len(s.materialize) }

// Run executes the program over basis on one simulated CTA, on executor x. It
// returns the program's Outputs, in order, each as the non-zero words committed
// to it — none for a matchless one — owned by the session: valid, read-only,
// until its next Run. Cancellation is checked at every block-window boundary,
// global while-loop iteration and fixpoint retry; a canceled run returns an
// error satisfying errors.Is(err, bgerr.ErrCanceled).
func (s *Session) Run(ctx context.Context, x *Executor, basis *transpose.Basis) ([]bitstream.Compact, gpusim.CTAStats, error) {
	cfg := s.cfg.withDefaults(basis.N)
	for attempt := 0; ; attempt++ {
		span := cfg.Obs.Span("kernel", "kernel-attempt", cfg.TraceLane).Arg("attempt", attempt)
		outs, stats, err := s.runOnce(ctx, x, basis, cfg)
		span.End()
		if err != nil {
			// The escaping errors.As target lives on the cold path so the
			// steady state stays allocation-free.
			var ovf *overflowError
			fusedMode := cfg.Mode == ModeDTM || cfg.Mode == ModeDTMStatic
			if errors.As(err, &ovf) && fusedMode && ovf.stmt != nil && !s.materialize[ovf.stmt] && attempt < 1+len(s.prog.Stmts) {
				// Section 8.2 fallback: execute the offending loop or carry
				// sequentially (materialized) and re-run interleaved around it,
				// on a plan of this session's own.
				materialize := maps.Clone(s.materialize)
				if materialize == nil {
					materialize = make(map[ir.Stmt]bool)
				}
				materialize[ovf.stmt] = true
				s.compiled = compile(s.prog, cfg.Mode, materialize)
				cfg.Obs.Instant("kernel", "overlap-fallback", cfg.TraceLane, obs.A("need_bits", ovf.need))
				continue
			}
			return nil, gpusim.CTAStats{}, err
		}
		return outs, stats, nil
	}
}

func (s *Session) runOnce(ctx context.Context, ex *Executor, basis *transpose.Basis, cfg Config) ([]bitstream.Compact, gpusim.CTAStats, error) {
	ex.reset(ctx, s.compiled, basis, cfg)
	if err := ex.canceled(); err != nil {
		return nil, gpusim.CTAStats{}, err
	}
	if cfg.Inject.Fire(faultinject.KernelPanic) {
		panic("faultinject: injected kernel panic")
	}
	ex.stats.Loops = int64(s.loops)
	ex.stats.IntermediateStreams = int64(s.intermediates)
	ex.stats.StaticDelta = s.staticDelta
	// The executor appends each output's words to the session's own buffers.
	for i, o := range s.prog.Outputs {
		ex.words[o.Var] = s.outs[i][:0]
	}
	for i, node := range s.pl.nodes {
		if err := ex.execNode(node); err != nil {
			return nil, gpusim.CTAStats{}, err
		}
		for _, v := range s.drop[i] {
			ex.release(v)
		}
	}
	for i, o := range s.prog.Outputs {
		if g := ex.globals[o.Var]; g != nil && len(ex.words[o.Var]) == 0 {
			// Read back by a later segment, the output kept its global stream.
			ex.words[o.Var] = ex.words[o.Var].AppendWords(g.Words(), 0)
		}
		// Compact outputs: one 32-bit position per match.
		s.outs[i], s.counts[i] = ex.words[o.Var], ex.words[o.Var].Popcount()
		ex.stats.DRAMWriteBytes += 4 * int64(s.counts[i])
	}
	return s.outs, ex.stats, nil
}

// Counts returns the set bits of each output the last Run returned.
func (s *Session) Counts() []int { return s.counts }

// NewExecutor returns an executor whose buffers are borrowed from a (nil
// selects arena.Default) and released by Close.
func NewExecutor(a *arena.Arena) *Executor {
	if a == nil {
		a = arena.Default
	}
	tr := arena.NewTracker(a)
	return &Executor{tr: tr, a: a, regs: &regFile{alloc: tr.Words}}
}

// Close releases every pooled buffer the executor borrowed. The executor must
// not be used afterwards.
func (ex *Executor) Close() {
	for v := range ex.bufs {
		ex.release(ir.VarID(v))
	}
	ex.tr.Close()
}
