package kernel

import (
	"context"
	"errors"

	"bitgen/internal/arena"
	"bitgen/internal/bitstream"
	"bitgen/internal/dfg"
	"bitgen/internal/faultinject"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/obs"
	"bitgen/internal/transpose"
)

// Session is a reusable executor for one program. The plan, liveness,
// dataflow analyses, barrier schedule and every stream/window buffer are
// built once and retained across runs, so the steady state of a streaming
// scan — the same program over same-sized chunks — performs zero heap
// allocations per Run. Buffer storage is borrowed from a pooled arena and
// released by Close.
//
// A Session is NOT safe for concurrent use: one session serves one
// goroutine (the scanner runs one session per pipeline worker per CTA
// group). The outputs returned by Run alias session-owned buffers; they are
// valid, read-only, until the next Run or Close.
type Session struct {
	prog *ir.Program
	base Config // as given; per-run defaults derived from each basis

	ex *ctaExec
	tr *arena.Tracker

	pl            *plan
	materialize   map[ir.Stmt]bool // nil until a fallback occurs
	isMat         []bool
	intermediates int
	loops         int
	staticDelta   int64

	outs   []bitstream.Compact // reused result slice, aligned with prog.Outputs
	counts []int               // the set bits of each of outs
}

// NewSession validates the program and builds the executor state. Buffers
// are borrowed from a (nil selects arena.Default).
func NewSession(p *ir.Program, cfg Config, a *arena.Arena) (*Session, error) {
	if err := cfg.withDefaults(1).Grid.Validate(); err != nil {
		return nil, err
	}
	if err := ir.Validate(p); err != nil {
		return nil, err
	}
	s := &Session{
		prog:   p,
		base:   cfg,
		tr:     arena.NewTracker(a),
		outs:   make([]bitstream.Compact, len(p.Outputs)),
		counts: make([]int, len(p.Outputs)),
	}
	s.ex = newExec(p)
	s.ex.alloc = s.tr.Words
	s.staticDelta = int64(dfg.Analyze(p).StaticDelta)
	s.rebuild()
	return s, nil
}

// rebuild recomputes the plan-derived state. Called at construction and
// after an overlap fallback grows the materialize set (rare; allocates). The
// new plan's segments compile again and mark again which loads bind on first
// read: the fallback may have materialized one.
func (s *Session) rebuild() {
	s.pl = buildPlan(s.prog.Stmts, s.base.Mode, s.materialize)
	s.isMat, s.intermediates = liveness(s.pl, s.prog)
	s.loops = s.pl.countLoops()
	for v := range s.ex.loadBit {
		s.ex.loadBit[v] = -1
	}
}

// SetTrace makes later Runs record through o on lane: pooled sessions change hands.
func (s *Session) SetTrace(o *obs.Observer, lane int) { s.base.Obs, s.base.TraceLane = o, lane }

// Fallbacks reports how many loops/carries have been pushed onto the
// materialized fallback path over the session's lifetime (RunResult's
// FallbackSegments equivalent; fallbacks persist across runs).
func (s *Session) Fallbacks() int { return len(s.materialize) }

// Run executes the program over basis on one simulated CTA. It returns the
// program's Outputs, in order, each as the non-zero words committed to it —
// none for a matchless one — owned by the session: valid, read-only, until
// the next Run or Close. Cancellation is checked at every block-window
// boundary, global while-loop iteration and fixpoint retry; a canceled run
// returns an error satisfying errors.Is(err, bgerr.ErrCanceled).
func (s *Session) Run(ctx context.Context, basis *transpose.Basis) ([]bitstream.Compact, gpusim.CTAStats, error) {
	cfg := s.base.withDefaults(basis.N)
	for attempt := 0; ; attempt++ {
		span := cfg.Obs.Span("kernel", "kernel-attempt", cfg.TraceLane).Arg("attempt", attempt)
		outs, stats, err := s.runOnce(ctx, basis, cfg)
		span.End()
		if err != nil {
			// The escaping errors.As target lives on the cold path so the
			// steady state stays allocation-free.
			var ovf *overflowError
			fusedMode := cfg.Mode == ModeDTM || cfg.Mode == ModeDTMStatic
			if errors.As(err, &ovf) && fusedMode && ovf.stmt != nil && !s.materialize[ovf.stmt] && attempt < 1+len(s.prog.Stmts) {
				// Section 8.2 fallback: execute the offending loop or carry
				// sequentially (materialized) and re-run interleaved around it.
				if s.materialize == nil {
					s.materialize = make(map[ir.Stmt]bool)
				}
				s.materialize[ovf.stmt] = true
				s.rebuild()
				cfg.Obs.Instant("kernel", "overlap-fallback", cfg.TraceLane, obs.A("need_bits", ovf.need))
				cfg.Obs.Reg().Counter(obs.MOverlapFallback, obs.HOverlapFallback).Inc()
				continue
			}
			return nil, gpusim.CTAStats{}, err
		}
		return outs, stats, nil
	}
}

func (s *Session) runOnce(ctx context.Context, basis *transpose.Basis, cfg Config) ([]bitstream.Compact, gpusim.CTAStats, error) {
	ex := s.ex
	ex.reset(ctx, basis, cfg)
	if err := ex.canceled(); err != nil {
		return nil, gpusim.CTAStats{}, err
	}
	if cfg.Inject.Fire(faultinject.KernelPanic) {
		panic("faultinject: injected kernel panic")
	}
	ex.isMat = s.isMat
	ex.stats.Loops = int64(s.loops)
	ex.stats.IntermediateStreams = int64(s.intermediates)
	ex.stats.StaticDelta = s.staticDelta

	if err := ex.execPlan(s.pl); err != nil {
		return nil, gpusim.CTAStats{}, err
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

// Close releases every pooled buffer the session borrowed. The session —
// and any streams Run returned — must not be used afterwards.
func (s *Session) Close() {
	s.tr.Close()
	s.ex = nil
}
