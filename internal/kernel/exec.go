package kernel

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"bitgen/internal/arena"
	"bitgen/internal/bgerr"
	"bitgen/internal/bitstream"
	"bitgen/internal/dfg"
	"bitgen/internal/faultinject"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/obs"
	"bitgen/internal/transpose"
)

// Config controls one CTA execution.
type Config struct {
	// Grid is the launch geometry (thread count, unit size, block size).
	Grid gpusim.Grid
	// Mode selects the execution model.
	Mode Mode
	// HonorGuards executes Zero Block Skipping guards.
	HonorGuards bool
	// SharedInputCTAs amortizes DRAM charges for the shared basis input
	// across this many CTAs (the L2 effect of every CTA reading the same
	// transposed input). Zero means 1 (no sharing).
	SharedInputCTAs int
	// MaxWhileIterations bounds global fixpoint loops; zero = 2n+16.
	// Hitting the cap returns an error satisfying errors.Is(err,
	// bgerr.ErrLimit) — never silent truncation.
	MaxWhileIterations int
	// Inject is an optional fault injector (tests only). Nil never fires.
	Inject *faultinject.Injector
	// Obs, when non-nil, records one span per execution attempt and an
	// instant event per overlap fallback. Nil compiles to pointer checks.
	Obs *obs.Observer
	// TraceLane is the trace lane (Chrome tid) spans land on; the engine
	// assigns 1+group so concurrent launches render as parallel tracks.
	TraceLane int
}

func (c Config) withDefaults(n int) Config {
	if c.Grid == (gpusim.Grid{}) {
		c.Grid = gpusim.DefaultGrid()
	}
	if c.SharedInputCTAs == 0 {
		c.SharedInputCTAs = 1
	}
	if c.MaxWhileIterations == 0 {
		c.MaxWhileIterations = 2*n + 16
	}
	return c
}

// RunResult is the outcome of executing one CTA.
type RunResult struct {
	// Outputs maps output names to exact match streams.
	Outputs map[string]*bitstream.Stream
	// Stats are the CTA's event counters.
	Stats gpusim.CTAStats
	// FallbackSegments counts loops/carries that overflowed the overlap
	// limit and were materialized stream-wise (0 in the common case).
	FallbackSegments int
}

// overflowError signals that a window's dynamic overlap exceeded the limit.
type overflowError struct {
	stmt ir.Stmt // the loop or carry assignment responsible
	need int
}

func (e *overflowError) Error() string {
	return fmt.Sprintf("kernel: overlap distance %d bits exceeds the block limit", e.need)
}

// Run executes a bitstream program over an input on one simulated CTA.
// All modes produce bit-identical outputs; they differ in data movement,
// synchronization, and therefore modeled time.
func Run(p *ir.Program, basis *transpose.Basis, cfg Config) (*RunResult, error) {
	return RunContext(context.Background(), p, basis, cfg)
}

// RunContext is Run honoring a context, as a one-shot Session on an executor
// of its own (see Session.Run for the cancellation contract); the result owns
// its streams.
func RunContext(ctx context.Context, p *ir.Program, basis *transpose.Basis, cfg Config) (*RunResult, error) {
	s, err := Compile(p, cfg)
	if err != nil {
		return nil, err
	}
	ex := NewExecutor(nil)
	defer ex.Close()
	outs, stats, err := s.Run(ctx, ex, basis)
	if err != nil {
		return nil, err
	}
	res := &RunResult{
		Outputs:          make(map[string]*bitstream.Stream, len(outs)),
		Stats:            stats,
		FallbackSegments: s.Fallbacks(),
	}
	for i, o := range p.Outputs {
		res.Outputs[o.Name] = outs[i].Stream(basis.N)
	}
	return res, nil
}

// canceled converts the run's done context into the taxonomy's canceled error,
// polling the Done channel reset captured: ctx.Err takes a mutex per window.
func (ex *Executor) canceled() error {
	select {
	case <-ex.done:
		return bgerr.Canceled(ex.ctx.Err())
	default:
		return nil
	}
}

// Executor is one worker's mutable kernel state: the register file, window
// scratch, probe slab and the per-variable stream tables. Its tables are
// sized to the largest program it has run and reused by every program it
// runs, so one worker launching many CTA groups holds one set of buffers;
// nothing in it outlives a run but storage. Not safe for concurrent use.
type Executor struct {
	ctx    context.Context
	done   <-chan struct{} // ctx.Done(), nil for a context that cannot end
	cfg    Config
	k      *compiled // the program of the current run
	basis  *transpose.Basis
	n      int // input bits
	nWords int
	stats  gpusim.CTAStats
	// globals holds each variable's materialized stream for THIS run; nil
	// means not yet written (reads as zero). bufs retains the backing
	// streams across runs, bufH their arena handles, so the steady state of
	// a streaming scan allocates nothing; release returns one.
	globals []*bitstream.Stream
	bufs    []*bitstream.Stream
	bufH    []*arena.Words
	// committed marks the variables a fused segment has committed this run: a
	// later read is charged as a load even while only zeros were committed and
	// the global is still nil (commitWindow).
	committed []bool
	words     []bitstream.Compact // each output's non-zero words this run: the session's buffers
	// zero is a shared read-only all-zero stream returned for never-written
	// reads; it is never stored into globals and never written.
	zero *bitstream.Stream
	regs *regFile
	// tr provides the word buffers of everything but the global streams,
	// which come from a.
	tr *arena.Tracker
	a  *arena.Arena
	// unitsPerWord converts 64-bit simulation words into the device's
	// W-bit accounting units.
	unitsPerWord int64
	// current fused-segment state
	curAnalysis *dfg.Analysis
	// scratch buffers for StarThru and for aliased whole-stream shifts
	tmpT, tmpS []uint64
	// saturation-probe scratch, retained: each live-out's committed words,
	// and the registers and culprit the fork saved (saveFork).
	probeWords  []uint64
	forkRegs    []savedReg
	forkWords   []uint64
	forkCulprit ir.Stmt
	// window state
	ws, cs, ce, weBits int
	ww                 int
	loadBytes          int64 // a basis load's DRAM read: the window's bytes over SharedInputCTAs
	needBits           int
	saturate           bool
	culprit            ir.Stmt
	// per-window group tracking: gid was charged this window iff
	// wgChargedAt[gid] == wgGen (epoch tagging, no per-window map; the
	// epoch runs on across programs).
	wgGen       uint32
	wgChargedAt []uint32
	// pres is the window's set of present extended streams, computed when
	// presAt == wgGen (windowSet).
	pres   []uint64
	presAt uint32
	// afterOp, when set, runs after every µop. Never set outside tests: they
	// check the register file's mask invariants there.
	afterOp func()
}

// grow returns s extended with zero values to at least n elements.
func grow[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// reset prepares the executor for one run of k over basis. Buffers retained
// in bufs, regs and the scratch slices are reused; the tables grow only for a
// program larger than any before, and only the n-dependent headers are
// re-pointed when the input size changes.
func (ex *Executor) reset(ctx context.Context, k *compiled, basis *transpose.Basis, cfg Config) {
	ex.ctx, ex.done = ctx, nil
	if ctx != nil {
		ex.done = ctx.Done()
	}
	ex.cfg, ex.k = cfg, k
	ex.basis = basis
	ex.n = basis.N
	ex.nWords = bitstream.WordsFor(basis.N)
	ex.stats = gpusim.CTAStats{}
	ex.unitsPerWord = int64(64 / cfg.Grid.UnitBits)
	nv := k.prog.NumVars
	ex.globals, ex.bufs, ex.bufH = grow(ex.globals, nv), grow(ex.bufs, nv), grow(ex.bufH, nv)
	ex.committed, ex.words = grow(ex.committed, nv), grow(ex.words, nv)
	ex.regs.grow(nv)
	if b := k.prog.Barriers; b != nil {
		ex.wgChargedAt = grow(ex.wgChargedAt, len(b.Groups))
	}
	clear(ex.globals)
	clear(ex.committed)
	ex.pres = slices.Grow(ex.pres[:0], basis.PresW)[:basis.PresW]
}

// reinitStream re-points s at an n-bit view of its own backing words,
// allocating fresh storage only when the capacity is insufficient (or s is
// nil). Contents are unspecified; callers fully overwrite.
func (ex *Executor) reinitStream(s *bitstream.Stream, n int) *bitstream.Stream {
	nw := bitstream.WordsFor(n)
	if s != nil {
		if w := s.Words(); cap(w) >= nw {
			s.Reinit(w[:cap(w)], n)
			return s
		}
	}
	return bitstream.FromWords(ex.tr.Words(nw), n)
}

// ensureGlobal returns variable v's stream for writing, reusing the
// retained buffer when possible. The returned stream is registered in
// globals; its previous contents are unspecified and the caller must
// overwrite the range it commits.
func (ex *Executor) ensureGlobal(v ir.VarID) *bitstream.Stream {
	if s := ex.globals[v]; s != nil {
		return s
	}
	if s := ex.bufs[v]; s == nil || cap(s.Words()) < ex.nWords {
		ex.release(v)
		ex.bufH[v] = ex.a.GetWords(ex.nWords)
		ex.bufs[v] = bitstream.FromWords(ex.bufH[v].W, ex.n)
	}
	ex.globals[v] = ex.reinitStream(ex.bufs[v], ex.n)
	return ex.globals[v]
}

// release returns v's global stream to the arena: after the plan node that
// touches it last, or when the executor closes.
func (ex *Executor) release(v ir.VarID) {
	ex.a.PutWords(ex.bufH[v])
	ex.globals[v], ex.bufs[v], ex.bufH[v] = nil, nil, nil
}

// ---------- plan walking ----------

func (ex *Executor) execPlan(pl *plan) error {
	for _, node := range pl.nodes {
		if err := ex.execNode(node); err != nil {
			return err
		}
	}
	return nil
}

func (ex *Executor) execNode(node planNode) error {
	switch x := node.(type) {
	case *fusedSeg:
		return ex.execFused(x)
	case *streamSeg:
		ex.execStream(x.assign)
	case *ctlSeg:
		return ex.execCtl(x)
	}
	return nil
}

// streamBytes is the size of one full materialized bitstream.
func (ex *Executor) streamBytes() int64 { return int64(ex.nWords) * 8 }

// streamUnits is the op count of one full-stream pass.
func (ex *Executor) streamUnits() int64 { return int64(ex.nWords) * ex.unitsPerWord }

// globalStream returns the materialized stream for v, or the shared
// read-only zero stream for a variable that was never written on the taken
// path. The shared zero is never registered in globals, so a later write to
// v gets its own buffer.
func (ex *Executor) globalStream(v ir.VarID) *bitstream.Stream {
	if s := ex.globals[v]; s != nil {
		return s
	}
	if ex.zero == nil || ex.zero.Len() != ex.n {
		ex.zero = ex.reinitStream(ex.zero, ex.n)
		ex.zero.ZeroInto()
	}
	return ex.zero
}

// execCtl runs a while with a global (whole-stream) condition.
func (ex *Executor) execCtl(c *ctlSeg) error {
	evalCond := func() bool {
		ex.stats.DRAMReadBytes += ex.streamBytes()
		ex.stats.UnitOps += ex.streamUnits()
		return ex.globalStream(c.cond).Any()
	}
	iters := 0
	for evalCond() {
		if err := ex.canceled(); err != nil {
			return err
		}
		iters++
		if iters > ex.cfg.MaxWhileIterations || ex.cfg.Inject.Fire(faultinject.WhileCap) {
			return fmt.Errorf("kernel: global while(S%d): %w", c.cond,
				&bgerr.LimitError{Limit: "while-iterations", Value: int64(iters), Max: int64(ex.cfg.MaxWhileIterations)})
		}
		ex.stats.WhileIterations++
		if err := ex.execPlan(c.body); err != nil {
			return err
		}
	}
	return nil
}

// execStream executes one instruction over the whole stream, block by
// block in order (shift neighborhoods and carries forward exactly). All
// results are written in place into the destination variable's retained
// buffer: the elementwise ops tolerate dst aliasing an operand, and the
// shift (which does not) detours through scratch when dst is its own
// source.
func (ex *Executor) execStream(a *ir.Assign) {
	read := func(v ir.VarID) *bitstream.Stream {
		ex.stats.DRAMReadBytes += ex.streamBytes()
		return ex.globalStream(v)
	}
	opFactor := int64(1)
	switch e := a.Expr; e.Op {
	case ir.OpZero:
		ex.ensureGlobal(a.Dst).ZeroInto()
	case ir.OpOnes:
		ex.ensureGlobal(a.Dst).OnesInto()
	case ir.OpCopy:
		src := read(e.X)
		if dst := ex.ensureGlobal(a.Dst); dst != src {
			src.CopyInto(dst)
		}
	case ir.OpNot:
		read(e.X).NotInto(ex.ensureGlobal(a.Dst))
	case ir.OpAnd:
		read(e.X).AndInto(read(e.Y), ex.ensureGlobal(a.Dst))
	case ir.OpOr:
		read(e.X).OrInto(read(e.Y), ex.ensureGlobal(a.Dst))
	case ir.OpXor:
		read(e.X).XorInto(read(e.Y), ex.ensureGlobal(a.Dst))
	case ir.OpAndNot:
		read(e.X).AndNotInto(read(e.Y), ex.ensureGlobal(a.Dst))
	case ir.OpShift:
		src := read(e.X)
		dst := ex.ensureGlobal(a.Dst)
		if dst == src && e.K != 0 {
			// Word-moving op on an aliased destination: shift through
			// scratch, then copy back (the scratch is retained, so the
			// steady state still allocates nothing).
			ex.ensureScratch(ex.nWords)
			bitstream.ShiftWords(ex.tmpT[:ex.nWords], src.Words(), int(e.K))
			copy(dst.Words(), ex.tmpT[:ex.nWords])
			maskStreamTail(dst)
		} else {
			src.ShiftInto(int(e.K), dst)
		}
		opFactor = 2
		// Stream-wise shifts read the adjacent block too (Figure 5 (b)).
		ex.stats.DRAMReadBytes += ex.streamBytes() / int64(max(1, ex.n/ex.cfg.Grid.BlockBits()))
	case ir.OpStarThru:
		m, c := read(e.X), read(e.Y)
		ex.ensureScratch(ex.nWords)
		bitstream.MatchStarInto(ex.ensureGlobal(a.Dst), m, c, ex.tmpT, ex.tmpS)
		opFactor = 7
	case ir.OpBasis:
		ex.basis.Bit(int(e.K)).CopyInto(ex.ensureGlobal(a.Dst))
		ex.stats.DRAMReadBytes += ex.streamBytes() / int64(ex.cfg.SharedInputCTAs)
	}
	ex.stats.UnitOps += opFactor * ex.streamUnits()
	ex.stats.DRAMWriteBytes += ex.streamBytes()
	ex.stats.Barriers++ // inter-loop dependency barrier (Figure 5)
}

// ensureScratch guarantees tmpT and tmpS hold at least n words.
func (ex *Executor) ensureScratch(n int) {
	if cap(ex.tmpT) < n {
		ex.tmpT = ex.tr.Words(n)
		ex.tmpS = ex.tr.Words(n)
	}
	ex.tmpT = ex.tmpT[:cap(ex.tmpT)]
	ex.tmpS = ex.tmpS[:cap(ex.tmpS)]
}

// ---------- fused (windowed) execution ----------

func align64(bits int) int { return (bits + 63) &^ 63 }

// execFused runs a fused segment window by window with Dependency-Aware
// Thread-Data Mapping: each window covers its commit range plus overlap
// margins; all segment values are recomputed inside the window.
func (ex *Executor) execFused(seg *fusedSeg) error {
	an := seg.an
	ex.curAnalysis = an
	blockBits := ex.cfg.Grid.BlockBits()
	dynamic := an.HasDynamic || an.HasCarry
	baseDL := align64(an.StaticMaxAdvance)
	baseDR := align64(-an.StaticMinOffset)
	liveOut := seg.liveOut
	if ex.n == 0 {
		return nil
	}
	// One span per segment carrying the op counts: superblocks have no
	// per-instruction dispatch to hang finer spans on.
	startWindows := ex.stats.Windows
	sbSpan := ex.cfg.Obs.Span("kernel", "superblock", ex.cfg.TraceLane).
		Arg("ops", seg.sprog.nOps).Arg("fused", seg.sprog.nFused)
	defer func() {
		sbSpan.Arg("windows", ex.stats.Windows-startWindows).End()
	}()
	dl := baseDL
	for cs := 0; cs < ex.n; cs += blockBits {
		if err := ex.canceled(); err != nil {
			return err
		}
		ce := min(cs+blockBits, ex.n)
		// Adapt the starting overlap: keep the previous window's converged
		// margin as a hint (chains persist across windows), decaying back
		// toward the static value.
		if dl > baseDL {
			dl = max(baseDL, align64(dl/2))
		}
		committed, err := ex.runWindowToFixpoint(seg, cs, ce, dl, baseDR, dynamic, liveOut)
		if err != nil {
			return err
		}
		dl = committed
		ex.stats.Windows++
		ex.stats.CommittedBits += int64(ce - cs)
		leftMargin := min(dl, cs)
		rightMargin := min(baseDR, ex.n-ce)
		ex.stats.RecomputedBits += int64(leftMargin + rightMargin)
		dyn := int64(leftMargin - min(baseDL, cs))
		ex.stats.DynDeltaSum += dyn
		ex.stats.DynDeltaMax = max(ex.stats.DynDeltaMax, dyn)
	}
	return nil
}

// runWindowToFixpoint executes one window, growing the left overlap until
// the committed bits are provably independent of unseen history, then
// commits live-out values. It returns the converged left-overlap in bits.
func (ex *Executor) runWindowToFixpoint(seg *fusedSeg, cs, ce, dl, dr int, dynamic bool, liveOut []ir.VarID) (int, error) {
	if dynamic && ex.cfg.Inject.Fire(faultinject.ForceFallback) {
		// Injected Section 8.2 overflow: push the segment's loop or carry
		// onto the materialized fallback path.
		return 0, &overflowError{stmt: findDynamicStmt(seg.stmts), need: ex.cfg.Grid.BlockBits() + 1}
	}
	for {
		if err := ex.canceled(); err != nil {
			return 0, err
		}
		if err := ex.execWindowOnce(seg, cs, ce, dl, dr); err != nil {
			return 0, err
		}
		if !dynamic || cs == 0 {
			// Static programs are covered by Δ_static; the first window
			// has no unseen history.
			ex.commitWindow(liveOut, cs, ce)
			return dl, nil
		}
		if ex.needBits > dl {
			// A carry run reached the window start: grow and retry.
			grown, err := ex.growOverlap(dl, cs)
			if err != nil {
				return 0, err
			}
			dl = grown
			continue
		}
		if dl >= cs {
			// The window already reaches the stream start: no unseen
			// history exists, the result is exact.
			ex.commitWindow(liveOut, cs, ce)
			return dl, nil
		}
		if seg.fork == nil {
			// Carry-only segment: checkCarryBoundary vouched for every
			// cross-block conduit, no probe needed. (A loop that merely
			// did not fire locally is NOT safe to skip: missing history
			// can be exactly why it did not fire.)
			ex.commitWindow(liveOut, cs, ce)
			return dl, nil
		}
		// Save the committed words, then run the saturation probe: the
		// same window with the overlap margins flooded with markers at
		// every loop head, resumed at the fork. By monotonicity of the
		// closure loops, equality of committed bits proves no history
		// beyond the margin could change them.
		lo, hi := (cs-ex.ws)/64, (ce+63)/64-ex.ws/64
		ex.saveCommitted(liveOut, lo, hi)
		if err := ex.probe(seg); err != nil {
			return 0, err
		}
		if ex.probeAgrees(liveOut, lo, hi) {
			ex.commitWindow(liveOut, cs, ce)
			return dl, nil
		}
		grown, err := ex.growOverlap(dl, cs)
		if err != nil {
			// Attribute the overflow to a concrete loop or carry so the
			// materialization fallback can retry.
			var ovf *overflowError
			if errors.As(err, &ovf) && ovf.stmt == nil {
				ovf.stmt = findDynamicStmt(seg.stmts)
			}
			return 0, err
		}
		dl = grown
	}
}

// findDynamicStmt returns the first while loop or carry assignment in a
// segment (the fallback culprit when growth cannot be attributed).
func findDynamicStmt(stmts []ir.Stmt) ir.Stmt {
	var found ir.Stmt
	ir.WalkStmts(stmts, func(s ir.Stmt) {
		if found != nil {
			return
		}
		switch x := s.(type) {
		case *ir.While:
			found = x
		case *ir.Assign:
			if x.Expr.Op == ir.OpStarThru {
				found = x
			}
		}
	})
	return found
}

// growOverlap doubles the left overlap, honoring the block-size limit: the
// overlap distance Δ is capped at one block (the paper's T·W·U), beyond which
// the offending loop or carry is materialized stream-wise (Section 8.2).
func (ex *Executor) growOverlap(dl, cs int) (int, error) {
	limit := ex.cfg.Grid.BlockBits()
	grown := min(max(dl*2, 64), align64(cs)) // no point extending past the stream start
	if dl >= limit || (grown == dl && dl >= cs) {
		return 0, &overflowError{stmt: ex.culprit, need: grown}
	}
	if grown = min(grown, align64(limit)); grown <= dl {
		return 0, &overflowError{stmt: ex.culprit, need: grown}
	}
	return grown, nil
}

// committedWords returns words [lo, hi) — the committed range — of live-out
// v's register, zeros for one that is absent (a loop that did not run) or
// known zero.
func (ex *Executor) committedWords(v ir.VarID, lo, hi int) []uint64 {
	if w := ex.regs.get(v); w != nil {
		return w[lo:hi]
	}
	return ex.regs.zeroWords()[lo:hi]
}

// saveCommitted keeps every live-out's committed words in the probe scratch.
func (ex *Executor) saveCommitted(liveOut []ir.VarID, lo, hi int) {
	n := hi - lo
	if len(ex.probeWords) < n*len(liveOut) {
		ex.probeWords = ex.tr.Words(n * len(liveOut))
	}
	for i, v := range liveOut {
		copy(ex.probeWords[i*n:], ex.committedWords(v, lo, hi))
	}
}

// probeAgrees reports whether the registers the probe pass left hold, in the
// committed range, what saveCommitted kept of the real pass. Then they are what
// commitWindow must store — except that a live-out all zero there is made known
// zero: the real pass may have known it, and committing the zero words the probe
// computed would materialize a global no window has a set bit for.
func (ex *Executor) probeAgrees(liveOut []ir.VarID, lo, hi int) bool {
	n := hi - lo
	for i, v := range liveOut {
		saved := ex.probeWords[i*n : (i+1)*n]
		if !slices.Equal(ex.committedWords(v, lo, hi), saved) {
			return false
		}
		if !anyWords(saved) {
			ex.regs.zero(v)
		}
	}
	return true
}

// commitWindow stores the committed range of live-out variables to global
// memory and charges the DRAM writes; an output not isMat appends its non-zero
// words to ex.words instead.
func (ex *Executor) commitWindow(liveOut []ir.VarID, cs, ce int) {
	if len(liveOut) > 0 && ex.cfg.Inject.Fire(faultinject.TileCorrupt) {
		// Injected shared-memory tile corruption: flip deterministic bits
		// in the first live-out register before it is committed. The fault
		// is contained — outputs may be wrong for this run, but execution
		// completes and the engine stays usable.
		if v := liveOut[0]; ex.regs.has(v) {
			reg := ex.regs.mut(v)
			ex.cfg.Inject.Corrupt(faultinject.TileCorrupt, reg)
			ex.regs.maskTail(reg)
		}
	}
	fromWord := cs / 64
	toWord := (ce + 63) / 64
	wsWord := ex.ws / 64
	for _, v := range liveOut {
		ex.committed[v] = true
		g, zero := ex.globals[v], !ex.regs.has(v) || ex.regs.isZero(v)
		switch {
		case !ex.k.isMat[v] && !zero: // a compact output's global stays nil
			ex.words[v] = ex.words[v].AppendWords(ex.regs.get(v)[fromWord-wsWord:toWord-wsWord], fromWord)
		case zero:
			// Not computed this window (a loop that did not run) or known zero
			// (guarded off, or produced all zero): the committed value is zero,
			// which a global no window has stored to yet says by staying nil.
			if g != nil {
				words := g.Words()
				clear(words[min(fromWord, len(words)):min(toWord, len(words))])
				maskStreamTail(g)
			}
		default:
			if g == nil {
				// First non-zero commit: the windows before this one were zero.
				g = ex.ensureGlobal(v)
				clear(g.Words()[:min(fromWord, ex.nWords)])
			}
			storeWindow(g, fromWord, ex.regs.get(v), fromWord-wsWord, toWord-fromWord)
		}
		if ex.k.isOut[v] {
			continue // compact outputs are charged at the end
		}
		ex.stats.DRAMWriteBytes += int64(toWord-fromWord) * 8
	}
}

// execWindowOnce is a window's real pass: every statement of the segment over
// the window [cs-dl, ce+dr), costs accounted. In a window the probe may re-run
// — the segment forks, and history before the window is unseen — it keeps the
// registers the probe resumes from at the fork (saveFork).
func (ex *Executor) execWindowOnce(seg *fusedSeg, cs, ce, dl, dr int) error {
	ex.openWindow(cs, ce, dl, dr)
	p := seg.sprog
	if seg.fork == nil || ex.ws == 0 {
		return ex.execSBProg(p, true)
	}
	f := seg.fork.node
	if err := ex.execSBNodes(p, 0, f, true); err != nil {
		return err
	}
	ex.saveFork(seg.fork)
	return ex.execSBNodes(p, f, len(p.nodes), true)
}

// openWindow sets the executor up for the window [cs-dl, ce+dr): geometry,
// scratch, and a register file with every register absent.
func (ex *Executor) openWindow(cs, ce, dl, dr int) {
	ex.ws, ex.cs, ex.ce, ex.weBits = max(cs-dl, 0), cs, ce, min(ce+dr, ex.n)
	wsWord := ex.ws / 64
	weWord := (ex.weBits + 63) / 64
	ex.ww = weWord - wsWord
	ex.loadBytes = ex.windowBytes() / int64(ex.cfg.SharedInputCTAs)
	ex.regs.beginWindow(ex.ww)
	ex.regs.endBit = ex.weBits - ex.ws
	ex.needBits = 0
	ex.culprit = nil
	ex.saturate = false
	ex.wgGen++ // invalidates wgChargedAt without clearing
	ex.ensureScratch(ex.ww)
	ex.tmpT = ex.tmpT[:ex.ww]
	ex.tmpS = ex.tmpS[:ex.ww]
}

// saveFork keeps, at the segment's fork f, what the real pass goes on to
// overwrite and the probe starts from: the registers of f.save and the culprit
// (the overflow's statement when the probe disagrees at the block limit).
// needBits is read after the real pass only.
func (ex *Executor) saveFork(f *segFork) {
	if n := len(f.save) * ex.ww; len(ex.forkWords) < n {
		ex.forkWords = ex.tr.Words(n)
	}
	ex.forkRegs = ex.forkRegs[:0]
	for i, v := range f.save {
		ex.forkRegs = append(ex.forkRegs, ex.regs.save(v, ex.forkWords[i*ex.ww:]))
	}
	ex.forkCulprit = ex.culprit
}

// probe is the saturation probe pass over the window the real pass left: the
// segment's nodes from its fork on, with the registers as saveFork found them
// and loop conditions flooded over the margins (execSBWhile), charging nothing.
// Nothing before the fork floods, so the nodes there computed what a probe of
// the whole window would; their registers the real pass left as they were.
// Carry inputs are not flooded: checkCarryBoundary vouches for carries.
func (ex *Executor) probe(seg *fusedSeg) error {
	f := seg.fork
	for i, v := range f.save {
		ex.regs.restore(v, ex.forkRegs[i], ex.forkWords[i*ex.ww:])
	}
	for _, v := range f.drop {
		ex.regs.drop(v)
	}
	ex.culprit, ex.saturate = ex.forkCulprit, true
	return ex.execSBNodes(seg.sprog, f.node, len(seg.sprog.nodes), false)
}

// windowUnits is the op count of one full-window pass.
func (ex *Executor) windowUnits() int64 { return int64(ex.ww) * ex.unitsPerWord }

// windowBytes is the byte size of one window buffer.
func (ex *Executor) windowBytes() int64 { return int64(ex.ww) * 8 }

// bind makes operand v register-resident without reading it: a view of its
// materialized stream, not copied, or the known-zero tag when nothing stored
// to it — only zeros were committed so far, which is charged as the load it
// models all the same, or it was never written (validated conditional defs).
// A prologue's load (loadBit) binds its basis view, charged at its pair.
func (ex *Executor) bind(v ir.VarID, charge bool) {
	if ex.regs.has(v) {
		return
	}
	if k := ex.k.loadBit[v]; k > 0 {
		ex.regs.view(v, ex.basis.Bit(int(k)-1), ex.ws/64)
		return
	}
	g := ex.globals[v]
	if charge && (g != nil || ex.committed[v]) {
		ex.stats.DRAMReadBytes += ex.windowBytes()
	}
	if g == nil {
		ex.regs.zero(v)
		return
	}
	ex.regs.view(v, g, ex.ws/64)
}

// readWindowed binds operand v and returns its window value for reading.
func (ex *Executor) readWindowed(v ir.VarID, charge bool) []uint64 {
	ex.bind(v, charge)
	return ex.regs.get(v)
}

// checkCarryBoundary inspects whether a carry chain could have entered the
// window from unseen (or not-yet-recomputed) history: a run of ones in the
// carry-propagating class c that crosses the commit boundary and begins
// inside the unsafe left margin — either before the window start, or in
// the first StaticMaxAdvance bits where recomputed values may themselves be
// stale. If so the window must grow.
func (ex *Executor) checkCarryBoundary(a *ir.Assign, c []uint64) {
	if ex.ws == 0 {
		return // stream start: carry-in of zero is exact
	}
	boundary := ex.cs - ex.ws
	runLen, reachesStart := onesRunCrossing(c, boundary)
	if runLen == 0 && !reachesStart {
		return
	}
	// A run starting in the window's first StaticMaxAdvance bits may be stale.
	if reachesStart || boundary-runLen < ex.curAnalysis.StaticMaxAdvance {
		ex.needBits = max(ex.needBits, boundary+64)
		if ex.culprit == nil {
			ex.culprit = a
		}
		return
	}
	// Chain fully visible and sourced in safe territory: record the
	// realized dynamic dependency distance.
	ex.stats.DynDeltaMax = max(ex.stats.DynDeltaMax, int64(runLen))
}

// trackSMemPeak records the high-water shared-memory footprint: streams
// co-resident for one merged barrier group, at one T×W tile per stream.
func (ex *Executor) trackSMemPeak(streams int) {
	tile := int64(ex.cfg.Grid.Threads * ex.cfg.Grid.UnitBits / 8)
	if peak := int64(streams) * tile; peak > ex.stats.SMemPeakBytes {
		ex.stats.SMemPeakBytes = peak
	}
}
