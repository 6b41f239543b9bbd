package kernel

// Superblock compilation of fused segments.
//
// A fused segment executes window by window as a superblock program, the
// compiled form of its IR statement list: runs of straight-line assignments
// between guards and control statements become flat µop arrays with integer
// opcodes, resolved operand slots and precomputed barrier-merge charge
// descriptors, executed word-block-at-a-time over the window register file.
// This is the only executor of fused segments; internal/ir's whole-stream
// interpreter is the reference for its outputs.
//
// On top of the flat encoding, the compiler fuses single-def single-use
// temporaries (found by dfg.UseDef.Count) into their consumer: an
// advance-then-mask pair like T = S >> k; M = T & CC — the hot step of
// bitstream regex matching — becomes one µop whose shifted words exist only
// inside its loop, and so does a pair of AND / OR / AND-NOT µops (fused2, one
// straight loop per pair): the intermediate never touches a window buffer,
// halving that pair's memory traffic.
//
// Two mechanisms move a shift to its reader; each covers shifts the other
// cannot. Compile-time sinking (tryFuse): a single-use bit-distance shift fuses
// into its consumer from anywhere earlier in its run, while bodies included —
// but not across a cut, and InsertGuards guards a rebalanced batch's own
// shifts. Deferral cannot stand in for it: deferring every shift, loop bodies
// included, costs a standalone µop per loop-body shift, and oneshot_control's
// op_p50_ms went 2.37 -> 2.69 ms (DESIGN §14, Superblock formation). Run-time
// deferral (compileRun, window.go): a shift left standalone — consumer behind a
// cut, several readers, a word distance — records "shift(src, k), not computed"
// instead of moving words. Plain bitwise µops fold it into their own pass once
// the result's mask is known not to be 0 (execBin), a guard or while head
// answers from the source words (regFile.any), every other reader forces it
// (regFile.get/mut), and two bitwise ops over a deferred operand are not
// pair-fused: a conjunction over a guard-cut batch stops at its first zero link
// and the shifts behind it are never computed. Invariant: a deferred shift yields the words its source
// held at the shift's position — proved at compile time (compileRun has the
// conditions), not policed at run time; any other shift runs where the IR put
// it.
//
// The executor also skips work the data makes moot — host-side Zero Block
// Skipping, at the granularity of a tile, a 64th of the window or more. Every
// register carries a live-tile mask (window.go) and mask 0 is the known-zero
// register: a taken guard gives what it skips mask 0 instead of clearing it.
// The plain bitwise µops, the shift-binaries and the fused pairs bound their
// result's mask by their operands' before reading a word (binMask) — 0 when an
// absorbing operand is known zero or the two are live in different tiles, and
// then the destination is known zero and no word moves. Otherwise a fused pair
// runs over the window and the others' word kernel over the runs of live tiles
// only (regFile.bin); the AND-type kernels report the OR of what
// they stored (the host analog of the atomicOr flag of Section 6), a run that
// stored zeros leaves the mask, and a result whose OR has few bit columns is
// rescanned for the tiles it occupies, so the match of two dense class streams
// hands a two-tile mask down its literal chain. A full mask takes the path there
// was before masks: one kernel call over the window. Copies and shifts hand
// their source's mask on; guards and while heads scan live tiles only,
// but a class prologue answers all its guards with one set test — the classes
// present in the window's whole lines, from the basis's presence rows — and
// leaves its loads to bind on first read; every other µop reads and writes
// whole windows, which window.go's storage invariant keeps correct. Operands
// that are not register-resident are bound as read-only views of their
// stream, not copied.
//
// Charging contract. Modeled cost is a function of the IR program and the
// window geometry, never of how the segment was compiled or of what the data
// let the host skip. Every source assignment charges what execSBRun lists for
// its unfused opcode, and a fused µop charges the sum of its two source
// assignments. A merged barrier group pays its barrier pair and one
// shared-memory store per distinct source once per window (chargeShift). A
// taken guard charges one unit pass per assignment it skips, nested bodies
// included. A class prologue run as one node (execPrologue) charges, pair by
// pair up to its first taken guard, what the load and the guard charge as
// nodes; a load it leaves to bind on first read charges there, read or not,
// and its binding charges nothing. A short-circuited µop binds its operands
// first, so residency is what it would have been, and charges exactly what
// the executed one does; a view load charges the DRAM read the copy did, and
// so does the read of a live-out whose commits were all zero and never
// materialized it. A deferred shift binds its source and charges at its own
// position; whoever folds or forces it charges only itself. The saturation
// probe pass (charge == false) charges nothing. testdata/ctastats.golden pins
// these rules case by case.

import (
	"math"
	"slices"
	"sync"

	"bitgen/internal/dfg"
	"bitgen/internal/ir"
	"bitgen/internal/transpose"
)

type sbOpCode uint8

const (
	sbZero sbOpCode = iota
	sbOnes
	sbCopy
	sbNot
	sbAnd
	sbOr
	sbXor
	sbAndNot
	sbShift
	sbStarThru
	sbMatchBasis
	// Fused shift+bitwise pairs: dst = op(shift(a,k), c). The shifted
	// intermediate exists only in registers inside the loop.
	sbShiftAnd    // dst = shift(a,k) & c
	sbShiftOr     // dst = shift(a,k) | c
	sbShiftAndNot // dst = shift(a,k) &^ c
	// sbFuse2 is a fused bitwise pair dst = outer(inner(a,b), c), inner and
	// outer each And, Or or AndNot: one straight loop over the window per
	// pair (fused2), the inner result never stored.
	sbFuse2
)

// sbBinCode maps an IR bitwise operator to its plain µop, sbShiftCode a plain
// AND, OR or AND-NOT µop to the fused dst = op(shift(a,k), c) with the shifted
// operand on the left. AND-NOT alone does not commute, and a shift on its right
// is computed, not fused: no workload reads one there. XOR has no shift form:
// lowering never emits an XOR.
var (
	sbBinCode   = [...]sbOpCode{ir.OpAnd: sbAnd, ir.OpOr: sbOr, ir.OpXor: sbXor, ir.OpAndNot: sbAndNot}
	sbShiftCode = [...]sbOpCode{sbAnd: sbShiftAnd, sbOr: sbShiftOr, sbAndNot: sbShiftAndNot}
)

// sbOp is one compiled µop.
type sbOp struct {
	code  sbOpCode
	inner sbOpCode // sbFuse2: inner bitwise op (sbAnd, sbOr, sbAndNot)
	outer sbOpCode // sbFuse2: outer bitwise op, the inner result on its left
	lazy  bool     // sbShift: record a deferral instead of moving words
	// k is the shift distance, the basis bit of sbMatchBasis, or for
	// sbStarThru the index of its statement in the program's carries.
	k int32

	dst, a, b, c ir.VarID

	// Barrier-merge group of shift µops: gid < 0 means unscheduled (each
	// shift pays its own barrier pair), otherwise the group is charged once
	// per window with compiled.nsrcs[gid] distinct sources.
	gid int32

	// nStmts counts the source assignments folded into this µop (2 for a
	// fused pair); a taken guard charges one zeroing pass per source
	// statement.
	nStmts int32
}

type sbNodeKind uint8

const (
	sbRunNode sbNodeKind = iota
	sbGuardNode
	sbWhileNode
)

// sbNode is one schedulable element of a compiled segment: a superblock run
// of µops, or a guard/while control point between runs.
type sbNode struct {
	kind   sbNodeKind
	lo, hi int32 // ops[lo:hi] for sbRunNode
	skip   int32 // guard: following nodes covered by the skip range
	skipN  int32 // guard: skipped top-level statement count (SkippedStmts)

	// Guard zeroing. A run/while node owns zeroDsts[zlo:zhi] of its program
	// — every destination later code may read; fused temporaries are dead past
	// their consumer and need none — and zeroCharge source assignments, one
	// unit pass each. A guard's range is resolved to cover every node it skips.
	zlo, zhi   int32
	zeroCharge int32
	// pairs marks the first of a maximal run of (one-µop basis load, guard on
	// it) node pairs — a class prologue, which execPrologue runs — with its
	// length. mask is 1 + the offset in the program's masks of the extended
	// streams its loads read, bit j for Ext[j], when every load binds on first
	// read (compiled.loadBit); 0 otherwise.
	pairs int32
	mask  int32

	cond   ir.VarID // guard/while condition
	growth int      // while: marker growth per iteration (from dfg analysis)
	body   *sbProgram
}

// sbProgram is the compiled form of one fused segment's statement list.
type sbProgram struct {
	ops      []sbOp
	nodes    []sbNode
	zeroDsts []ir.VarID // what taken guards tag known zero, node after node
	masks    []uint64   // prologue masks, ⌈ExtBits/64⌉ words each
	// carries are the StarThru statements, kept for carry-boundary
	// and overlap-fallback attribution (the materialize set is keyed by them).
	carries []*ir.Assign
	// nOps and nFused total the µops and fused pairs across nested bodies
	// (the superblock span's attributes).
	nOps   int
	nFused int
	// loop is the while statement whose body this is (the overflow culprit),
	// nil for any other list.
	loop *ir.While
}

// ---------- compilation ----------

type sbCompiler struct {
	k  *compiled
	ud dfg.UseDef
	an *dfg.Analysis
	// Build scratch, reused by every segment of the program. Deferrable
	// shifts (see compileRun): definitions passed so far per variable,
	// enclosing while bodies, destinations that qualified; seen and lazy are
	// zeroed again after each segment. cut and stmtHi are stacks, one frame
	// per statement list being compiled.
	seen   []int32
	loops  int
	lazy   []bool
	cut    []bool
	stmtHi []int
	pre    []int32 // guard resolution: see compile
	thr    []int32
	mark   []uint8 // fork: which side of the fork assigns each variable
	// The barrier-merge index: each shift's group, when it has two or more
	// members.
	gidOf map[*ir.Assign]int32
	// depth counts the enclosing while bodies; whole says the segment
	// is the program.
	depth int
	whole bool
}

// sbScratch recycles compilers, with their scratch, across the programs a
// process compiles.
var sbScratch = sync.Pool{New: func() any { return new(sbCompiler) }}

// newSBCompiler prepares the compilation of k's segments, indexing the
// program's barrier schedule (produced by the Shift Rebalancing pass). Its
// seen and lazy are NumVars zeros; put it back with done.
func newSBCompiler(k *compiled) *sbCompiler {
	c := sbScratch.Get().(*sbCompiler)
	c.k, c.seen, c.lazy = k, grow(c.seen, k.prog.NumVars)[:k.prog.NumVars], grow(c.lazy, k.prog.NumVars)
	c.thr = grow(c.thr, k.prog.NumVars)
	if c.gidOf == nil {
		c.gidOf = make(map[*ir.Assign]int32)
	}
	if sched := k.prog.Barriers; sched != nil {
		k.nsrcs = make([]int32, len(sched.Groups))
		for gid, group := range sched.Groups {
			if len(group) < 2 {
				continue // singleton groups behave like unscheduled shifts
			}
			for i, a := range group {
				c.gidOf[a] = int32(gid)
				sh, ok := a.Expr.(ir.Shift)
				if ok && !slices.ContainsFunc(group[:i], func(b *ir.Assign) bool { x, ok := b.Expr.(ir.Shift); return ok && x.Src == sh.Src }) {
					k.nsrcs[gid]++
				}
			}
		}
	}
	return c
}

// done returns c to sbScratch, dropping what it referenced.
func (c *sbCompiler) done() {
	clear(c.gidOf)
	c.k, c.an, c.whole = nil, nil, false // c.ud keeps its tables
	sbScratch.Put(c)
}

// compilePlan compiles every fused segment of pl, nested ones included: its
// analysis (while nodes bake in its loop growth), superblock program and
// live-out set.
func (c *sbCompiler) compilePlan(pl *plan) {
	for _, node := range pl.nodes {
		switch x := node.(type) {
		case *fusedSeg:
			p := c.k.prog
			c.whole = len(x.stmts) > 0 && len(x.stmts) == len(p.Stmts) && x.stmts[0] == p.Stmts[0]
			if c.an = c.k.an; !c.whole {
				c.an = dfg.AnalyzeBody(x.stmts, p.NumVars)
			}
			c.ud.Count(x.stmts, p.NumVars)
			x.an, x.sprog = c.an, c.compile(x.stmts)
			if propagates(c.an) {
				x.fork = c.fork(x.sprog)
			}
			// Every destination was seen: the first sight of each lists it.
			ir.WalkStmts(x.stmts, func(s ir.Stmt) {
				if a, ok := s.(*ir.Assign); ok {
					if c.seen[a.Dst] != 0 && (c.k.isMat[a.Dst] || c.k.isOut[a.Dst]) {
						x.liveOut = append(x.liveOut, a.Dst)
					}
					c.seen[a.Dst], c.lazy[a.Dst] = 0, false
				}
			})
		case *ctlSeg:
			c.compilePlan(x.body)
		}
	}
}

// propagates reports whether the segment contains a while loop whose body
// advances markers (growth > 0) — the only construct requiring the saturation
// probe.
func propagates(an *dfg.Analysis) bool {
	for _, g := range an.LoopGrowth {
		if g > 0 {
			return true
		}
	}
	return false
}

// segFork is where the saturation probe of a segment resumes its window's real
// pass (Executor.probe). The probe floods loop conditions only, so everything
// before the first loop computes the same in both passes: the probe restores
// the registers the real pass's continuation overwrote and re-runs the top-level
// nodes from node on.
type segFork struct {
	node int
	// save are the µop destinations assigned both before and at or after node —
	// a loop's carried initial values: their registers at the fork are copied
	// out (Executor.saveFork) and put back for the probe. drop are those
	// assigned only at or after node, nested bodies included: the probe starts
	// with them absent, as the window did. Every other register the
	// continuation leaves as the fork found it, but for a deferred shift forced
	// into storage and a fused temporary a taken guard tagged zero, which
	// nothing reads.
	save, drop []ir.VarID
}

// fork places the fork of a segment compiled to p: at its first top-level
// while, moved back while a node before it — a guard's skip range or a class
// prologue — reaches it, so the real pass's node loop lands on it exactly.
func (c *sbCompiler) fork(p *sbProgram) *segFork {
	nodes := p.nodes
	f := slices.IndexFunc(nodes, func(nd sbNode) bool { return nd.kind == sbWhileNode })
	for i := 0; i < f; i++ {
		reach := i
		if nd := &nodes[i]; nd.kind == sbGuardNode {
			reach += int(nd.skip)
		} else if nd.pairs > 0 {
			reach += 2*int(nd.pairs) - 1
		}
		if reach >= f {
			f, i = i, -1
		}
	}
	c.mark = grow(c.mark, c.k.prog.NumVars)
	for i := range nodes {
		side := uint8(1) // before the fork; 2 at or after it
		if i >= f {
			side = 2
		}
		eachDst(p, &nodes[i], func(v ir.VarID) { c.mark[v] |= side })
	}
	fk := &segFork{node: f}
	for i := range nodes {
		eachDst(p, &nodes[i], func(v ir.VarID) {
			switch c.mark[v] {
			case 3:
				fk.save = append(fk.save, v)
			case 2:
				fk.drop = append(fk.drop, v)
			}
			c.mark[v] = 0
		})
	}
	return fk
}

// eachDst calls fn with the destination of every µop of node nd of p, nested
// bodies included. A fused temporary is none: no register holds it.
func eachDst(p *sbProgram, nd *sbNode, fn func(ir.VarID)) {
	switch nd.kind {
	case sbRunNode:
		for _, op := range p.ops[nd.lo:nd.hi] {
			fn(op.dst)
		}
	case sbWhileNode:
		for i := range nd.body.nodes {
			eachDst(nd.body, &nd.body.nodes[i], fn)
		}
	}
}

func (c *sbCompiler) compile(stmts []ir.Stmt) *sbProgram {
	p := &sbProgram{}
	// Superblocks must not straddle a guard's skip range: cut at every
	// control statement and at every guard-range end so a firing guard
	// covers whole nodes.
	base := len(c.cut)
	c.cut = slices.Grow(c.cut, len(stmts)+1)[:base+len(stmts)+1]
	cut := c.cut[base:]
	clear(cut)
	nodes, ops := 0, 0 // what p will hold, ops at most: sized once
	for i, s := range stmts {
		switch x := s.(type) {
		case *ir.Guard:
			cut[i], cut[i+1] = true, true
			cut[min(i+1+x.Skip, len(stmts))] = true
		case *ir.While:
			cut[i], cut[i+1] = true, true
		case *ir.Assign:
			ops++
			if i > 0 && !cut[i] {
				continue // inside a run
			}
		}
		nodes++
	}
	p.nodes, p.ops, p.zeroDsts = make([]sbNode, 0, nodes), make([]sbOp, 0, ops), make([]ir.VarID, 0, ops)
	// stmtHi records each node's statement range end for resolving guard
	// skip counts into node counts afterwards.
	hiBase := len(c.stmtHi)
	emit := func(n sbNode, zlo int32, hi int) {
		n.zlo, n.zhi = zlo, int32(len(p.zeroDsts))
		p.nodes = append(p.nodes, n)
		c.stmtHi = append(c.stmtHi, hi)
	}
	// bodyZero lists what a taken guard must zero when its range covers a
	// nested while — every assignment destination of the body — and
	// returns how many.
	bodyZero := func(body []ir.Stmt) (charge int32) {
		ir.WalkStmts(body, func(s ir.Stmt) {
			if a, ok := s.(*ir.Assign); ok {
				p.zeroDsts = append(p.zeroDsts, a.Dst)
				charge++
			}
		})
		return charge
	}
	i := 0
	for i < len(stmts) {
		zlo := int32(len(p.zeroDsts))
		switch x := stmts[i].(type) {
		case *ir.Guard:
			emit(sbNode{kind: sbGuardNode, cond: x.Cond, skipN: int32(x.Skip)}, zlo, i+1)
			i++
		case *ir.While:
			c.loops, c.depth = c.loops+1, c.depth+1
			body := c.compile(x.Body)
			body.loop = x
			c.loops, c.depth = c.loops-1, c.depth-1
			p.nOps += body.nOps
			p.nFused += body.nFused
			emit(sbNode{kind: sbWhileNode, cond: x.Cond, body: body,
				growth: c.an.LoopGrowth[x], zeroCharge: bodyZero(x.Body)}, zlo, i+1)
			i++
		default:
			// Maximal straight-line run up to the next cut point.
			j := i + 1
			for j < len(stmts) && !cut[j] {
				j++
			}
			lo := int32(len(p.ops))
			c.compileRun(p, stmts[i:j])
			nd := sbNode{kind: sbRunNode, lo: lo, hi: int32(len(p.ops))}
			for oi := nd.lo; oi < nd.hi; oi++ {
				p.zeroDsts = append(p.zeroDsts, p.ops[oi].dst)
				nd.zeroCharge += p.ops[oi].nStmts
			}
			emit(nd, zlo, j)
			i = j
		}
	}
	// Resolve guard skips: a guard at statement g covers statements
	// [g+1, g+1+Skip); the cut points guarantee following nodes nest whole
	// inside that range. At top level a taken guard tags known zero only the
	// destinations something may still read: one read after the range,
	// committed, or defined again. Any other reads as zero while absent (bind).
	// A guard in a body tags them all: a loop may read them again.
	// pre[k] sums the zero charges of the nodes before k, guards' still 0; at
	// top level thr[v] is 1 + the last statement reading v, or MaxInt32 for a
	// destination a taken guard always tags.
	stmtHi := c.stmtHi[hiBase:]
	c.pre = append(c.pre[:0], 0)
	for i := range p.nodes {
		c.pre = append(c.pre, c.pre[i]+p.nodes[i].zeroCharge)
	}
	for _, v := range p.zeroDsts {
		if c.thr[v] = c.ud.Last[v]; c.k.isMat[v] || c.k.isOut[v] || c.ud.Defs[v] > 1 {
			c.thr[v] = math.MaxInt32
		}
	}
	for ni := range p.nodes {
		nd := &p.nodes[ni]
		if nd.kind != sbGuardNode {
			continue
		}
		end := min(stmtHi[ni]+int(nd.skipN), len(stmts))
		k, _ := slices.BinarySearch(stmtHi[ni+1:], end+1)
		k += ni + 1
		nd.zeroCharge += c.pre[k] - c.pre[ni+1]
		nd.skip = int32(k - ni - 1)
		nd.zhi = p.nodes[k-1].zhi
		if c.depth == 0 {
			lo := int32(len(p.zeroDsts))
			for _, v := range p.zeroDsts[nd.zlo:nd.zhi] {
				if c.thr[v] > int32(end) {
					p.zeroDsts = append(p.zeroDsts, v)
				}
			}
			nd.zlo, nd.zhi = lo, int32(len(p.zeroDsts))
		}
	}
	c.cut, c.stmtHi = c.cut[:base], c.stmtHi[:hiBase]
	// Mark the prologues from the back, so a pair's successor knows its run.
	for ni := len(p.nodes) - 2; ni >= 0; ni-- {
		ld, g := &p.nodes[ni], &p.nodes[ni+1]
		if ld.kind == sbRunNode && ld.hi == ld.lo+1 && p.ops[ld.lo].code == sbMatchBasis && g.kind == sbGuardNode && g.cond == p.ops[ld.lo].dst {
			if ld.pairs = 1; ni+2 < len(p.nodes) {
				ld.pairs, p.nodes[ni+2].pairs = 1+p.nodes[ni+2].pairs, 0
			}
		}
	}
	for ni := range p.nodes {
		if p.nodes[ni].pairs > 0 && c.depth == 0 && c.whole {
			c.lazyPrologue(p, ni)
		}
	}
	p.nOps += len(p.ops)
	for oi := range p.ops {
		if p.ops[oi].nStmts > 1 {
			p.nFused++
		}
	}
	return p
}

// lazyPrologue gives the prologue at node ni of a segment that is the whole
// program its mask when every load reads an extended stream into a
// destination that its first reader may bind: defined nowhere else — so, the
// program being valid, no statement before the load reads it — and neither
// materialized nor an output. It marks those loads in compiled.loadBit.
func (c *sbCompiler) lazyPrologue(p *sbProgram, ni int) {
	nd := &p.nodes[ni]
	loads := p.ops[nd.lo : nd.lo+nd.pairs]
	for _, op := range loads {
		if v := op.dst; op.k < transpose.NumBasis || c.ud.Defs[v] != 1 || c.k.isMat[v] || c.k.isOut[v] {
			return
		}
	}
	nd.mask = int32(len(p.masks)) + 1
	p.masks = append(p.masks, make([]uint64, (c.k.prog.ExtBits+63)/64)...)
	for _, op := range loads {
		j := op.k - transpose.NumBasis
		p.masks[nd.mask-1+j/64] |= 1 << (j % 64)
		c.k.loadBit[op.dst] = op.k + 1
	}
}

// compileRun translates a straight-line assignment run into µops, fusing
// single-use temporaries into their consumer. runStart bounds fusion to this
// run: folding a statement into a µop of an earlier node would move it across
// a guard or control boundary and corrupt the skip/zero bookkeeping.
//
// T = shift(S, k) is deferrable when T is defined nowhere else, every
// definition of S in the segment is already behind it, and it is not inside a
// while body (an iteration may rewrite S ahead of a reader that kept T from an
// earlier one): nothing then writes S's register before the window ends.
func (c *sbCompiler) compileRun(p *sbProgram, stmts []ir.Stmt) {
	runStart := len(p.ops)
	for _, s := range stmts {
		a := s.(*ir.Assign)
		if sh, ok := a.Expr.(ir.Shift); ok && c.loops == 0 && c.ud.Defs[a.Dst] == 1 && c.seen[sh.Src] == c.ud.Defs[sh.Src] {
			c.lazy[a.Dst] = true
		}
		c.seen[a.Dst]++
		if c.tryFuse(p, runStart, a) {
			continue
		}
		p.ops = append(p.ops, c.baseOp(p, a))
	}
}

// baseOp translates one assignment to its unfused µop.
func (c *sbCompiler) baseOp(p *sbProgram, a *ir.Assign) sbOp {
	op := sbOp{dst: a.Dst, gid: -1, nStmts: 1}
	switch e := a.Expr.(type) {
	case ir.Zero:
		op.code = sbZero
	case ir.Ones:
		op.code = sbOnes
	case ir.Copy:
		op.code, op.a = sbCopy, e.Src
	case ir.Not:
		op.code, op.a = sbNot, e.Src
	case ir.Bin:
		op.code, op.a, op.b = sbBinCode[e.Op], e.X, e.Y
	case ir.Shift:
		op.code, op.a, op.k, op.lazy = sbShift, e.Src, int32(e.K), c.lazy[a.Dst]
		if gid, ok := c.gidOf[a]; ok {
			op.gid = gid
		}
	case ir.StarThru:
		op.code, op.a, op.b, op.k, p.carries = sbStarThru, e.M, e.C, int32(len(p.carries)), append(p.carries, a)
	case ir.MatchBasis:
		op.code, op.k = sbMatchBasis, int32(e.Bit)
	}
	return op
}

// tryFuse attempts to fold the bitwise assignment a into the µop of this run
// (p.ops[runStart:]) that defines one of its operands. That operand must be a
// single-def single-use temporary that is not live out of the segment
// (materialized or an output), defined by a still-unfused µop — pairs only,
// no chains. Two shapes fuse:
//
//   - a bit-granular shift (|k| in 1..63) anywhere earlier in the run into an
//     AND, an OR or the left of an AND-NOT, as long as its source is not
//     redefined before a.
//     The shift sinks to its
//     consumer: a rebalanced batch T1..T8 = shifts; M1 = M0 & T1; ... becomes
//     one shift-and per link, and each shift dies with the chain when the
//     running conjunction is known zero.
//   - an AND, OR or AND-NOT immediately before a, when a is one of the three
//     too and, if an AND-NOT, reads it on the left: the nine pairs fused2 has
//     a loop for. XOR pairs and c &^ inner stay two µops.
//
// On success the defining µop is removed and the fused µop appended in a's
// position.
func (c *sbCompiler) tryFuse(p *sbProgram, runStart int, a *ir.Assign) bool {
	bin, ok := a.Expr.(ir.Bin)
	if !ok || bin.X == bin.Y {
		return false
	}
	last := len(p.ops) - 1
	for di := last; di >= runStart; di-- {
		def := &p.ops[di]
		t := def.dst
		if t != bin.X && t != bin.Y {
			continue
		}
		if def.nStmts != 1 || !c.ud.SingleUseTemp(t) || c.k.isMat[t] || c.k.isOut[t] {
			continue
		}
		other, tIsX := bin.Y, true
		if bin.Y == t {
			other, tIsX = bin.X, false
		}
		fused := sbOp{dst: a.Dst, a: def.a, c: other, nStmts: 2}
		switch def.code {
		case sbShift:
			k := int(def.k)
			if k == 0 || k > 63 || k < -63 || bin.Op == ir.OpXor || bin.Op == ir.OpAndNot && !tIsX {
				continue // word-offset shifts stay standalone, and so do XORs and c &^ shift
			}
			if di < last && redefines(p.ops[di+1:], def.a) {
				continue
			}
			fused.k, fused.gid = def.k, def.gid
			fused.code = sbShiftCode[sbBinCode[bin.Op]]
		case sbAnd, sbOr, sbAndNot:
			// A pair reads all three operands at once; over a deferred shift
			// the two ops stay apart so the first can end the chain.
			if di < last || bin.Op == ir.OpXor || bin.Op == ir.OpAndNot && !tIsX ||
				c.lazy[def.a] || c.lazy[def.b] || c.lazy[other] {
				continue
			}
			fused.code, fused.inner, fused.b, fused.gid = sbFuse2, def.code, def.b, -1
			fused.outer = sbBinCode[bin.Op]
		default:
			continue
		}
		p.ops = append(append(p.ops[:di], p.ops[di+1:]...), fused)
		return true
	}
	return false
}

// redefines reports whether any µop in ops writes v.
func redefines(ops []sbOp, v ir.VarID) bool {
	for i := range ops {
		if ops[i].dst == v {
			return true
		}
	}
	return false
}

// ---------- execution ----------

// execSBProg runs a compiled segment program over the current window,
// charging per the contract in this file's header when charge is set.
func (ex *Executor) execSBProg(p *sbProgram, charge bool) error {
	return ex.execSBNodes(p, 0, len(p.nodes), charge)
}

// execSBNodes runs nodes [lo, hi) of p, which no node of them reaches past.
func (ex *Executor) execSBNodes(p *sbProgram, lo, hi int, charge bool) error {
	nodes := p.nodes[:hi]
	for i := lo; i < len(nodes); i++ {
		nd := &nodes[i]
		switch nd.kind {
		case sbRunNode:
			if nd.pairs > 0 {
				i = ex.execPrologue(p, i, charge)
			} else if err := ex.execSBRun(p, nd.lo, nd.hi, charge); err != nil {
				return err
			}
		case sbGuardNode:
			ex.bind(nd.cond, charge)
			if charge {
				ex.chargeGuards(1)
			}
			if ex.cfg.HonorGuards && !ex.regs.any(nd.cond) {
				i = ex.takeGuard(p, i, charge)
			}
		case sbWhileNode:
			if err := ex.execSBWhile(nd, charge); err != nil {
				return err
			}
		}
	}
	return nil
}

// chargeGuards charges n guards' zero tests. Each piggybacks on the producing
// instruction's atomicOr flag (Section 6): a block-wide reduction but no extra
// barrier.
func (ex *Executor) chargeGuards(n int64) {
	ex.stats.UnitOps += n * ex.windowUnits()
	ex.stats.SMemWriteBytes += n * int64(ex.cfg.Grid.Threads) * 4
	ex.stats.GuardChecks += n
}

// takeGuard fires the guard node gi: it tags what the guard skips known zero,
// writing no memory, charges the skip and returns the last node skipped.
func (ex *Executor) takeGuard(p *sbProgram, gi int, charge bool) int {
	nd := &p.nodes[gi]
	for _, v := range p.zeroDsts[nd.zlo:nd.zhi] {
		ex.regs.zero(v)
	}
	if charge {
		ex.stats.UnitOps += int64(nd.zeroCharge) * ex.windowUnits()
		ex.stats.GuardSkips++
		ex.stats.SkippedStmts += int64(nd.skipN)
	}
	return gi + int(nd.skip)
}

// execPrologue runs the class prologue marked at node ni as one node and
// returns the last node it covered. When guards are not honored, or every
// stream its loads read is present in the window (its mask inside windowSet),
// no guard can fire and nothing is done per pair: the loads bind on first
// read (bind). Otherwise it runs pair by pair, binding each load and
// answering its guard from the window's set, else exactly by regs.any; the
// first taken one fires as its node would.
func (ex *Executor) execPrologue(p *sbProgram, ni int, charge bool) int {
	nd := &p.nodes[ni]
	loads := p.ops[nd.lo : nd.lo+nd.pairs] // a guard node has no µops: the loads are adjacent
	last, n := ni+2*len(loads)-1, int64(len(loads))
	honor := ex.cfg.HonorGuards
	if nd.mask == 0 || honor && !covers(ex.windowSet(), p.masks[nd.mask-1:][:(ex.k.prog.ExtBits+63)/64]) {
		set := ex.windowSet()
		for k := range loads {
			op := &loads[k]
			ex.regs.view(op.dst, ex.basis.Bit(int(op.k)), ex.ws/64)
			j := int(op.k) - transpose.NumBasis
			if !honor || j >= 0 && j/64 < len(set) && set[j/64]>>(j%64)&1 != 0 || ex.regs.any(op.dst) {
				continue
			}
			n, last = int64(k+1), ex.takeGuard(p, ni+2*k+1, charge)
			break
		}
	}
	if charge {
		ex.stats.DRAMReadBytes += n * ex.loadBytes
		ex.chargeGuards(n)
	}
	return last
}

// windowSet returns the extended streams present in the whole lines of the
// current window (transpose.Basis.Present), ORed once a window.
func (ex *Executor) windowSet() []uint64 {
	if ex.presAt != ex.wgGen {
		ex.presAt = ex.wgGen
		ex.basis.Present(ex.pres, ex.ws/64, ex.ww)
	}
	return ex.pres
}

// covers reports whether every bit of mask is in set.
func covers(set, mask []uint64) bool {
	if len(mask) > len(set) {
		return false
	}
	for i, m := range mask {
		if m&^set[i] != 0 {
			return false
		}
	}
	return true
}

// execSBWhile iterates a compiled loop body until its condition is zero
// over the whole window, recording the overlap the iterations demand.
func (ex *Executor) execSBWhile(nd *sbNode, charge bool) error {
	iters := 0
	maxIters := ex.weBits - ex.ws + 16
	for {
		ex.bind(nd.cond, charge)
		if ex.saturate && iters == 0 {
			// Probe pass: flood the left margin of the loop condition so any
			// possible propagation across the commit boundary is triggered.
			ex.regs.flood(nd.cond, ex.cs-ex.ws)
		}
		if charge {
			ex.stats.UnitOps += ex.windowUnits()
			ex.stats.Barriers++
		}
		if !ex.regs.any(nd.cond) {
			return nil
		}
		if iters++; iters > maxIters {
			ex.culprit = nd.body.loop
			return &overflowError{stmt: nd.body.loop, need: ex.cfg.Grid.BlockBits() + 1}
		}
		if charge {
			ex.stats.WhileIterations++
		}
		if nd.growth > 0 {
			ex.needBits += nd.growth
			if ex.culprit == nil {
				ex.culprit = nd.body.loop
			}
		}
		if err := ex.execSBProg(nd.body, charge); err != nil {
			return err
		}
	}
}

// execSBRun executes one superblock's µops over the current window.
func (ex *Executor) execSBRun(p *sbProgram, lo, hi int32, charge bool) error {
	units := ex.windowUnits()
	for oi := lo; oi < hi; oi++ {
		op := &p.ops[oi]
		switch op.code {
		case sbZero:
			ex.regs.zero(op.dst)
			if charge {
				ex.stats.UnitOps += units
			}
		case sbOnes:
			dst := ex.regs.buf(op.dst)
			for i := range dst {
				dst[i] = ^uint64(0)
			}
			ex.regs.maskTail(dst)
			if charge {
				ex.stats.UnitOps += units
			}
		case sbCopy:
			ex.bind(op.a, charge)
			if r, src := ex.regs, ex.regs.get(op.a); r.live[op.a] == 0 {
				r.zero(op.dst)
			} else {
				r.bin(sbOr, op.dst, src, 0, src, r.live[op.a]) // x | x: the live tiles copied
			}
			if charge {
				ex.stats.UnitOps += units
			}
		case sbNot:
			src := ex.readWindowed(op.a, charge)
			dst := ex.regs.buf(op.dst)
			notWords(dst, src)
			ex.regs.maskTail(dst)
			if charge {
				ex.stats.UnitOps += units
			}
		case sbAnd, sbOr, sbXor, sbAndNot:
			ex.execBin(op, charge)
			if charge {
				ex.stats.UnitOps += units
			}
		case sbShift:
			src := ex.readWindowed(op.a, charge)
			ex.regs.shift(op.dst, src, ex.regs.live[op.a], op.k, op.lazy)
			if charge {
				ex.chargeShift(op, units)
			}
		case sbStarThru:
			m := ex.readWindowed(op.a, charge)
			cc := ex.readWindowed(op.b, charge)
			dst := ex.regs.buf(op.dst)
			starThruWords(dst, m, cc, ex.tmpT, ex.tmpS)
			ex.regs.maskTail(dst)
			ex.checkCarryBoundary(p.carries[op.k], cc)
			if charge {
				ex.stats.UnitOps += 7 * units
				ex.stats.Barriers += 2 // marker-shift neighborhood + carry exchange
				ex.stats.ShiftBarriers++
				ex.stats.SMemWriteBytes += ex.windowBytes() + int64(ex.cfg.Grid.Threads)*8
				ex.stats.SMemReadBytes += ex.windowBytes()
			}
		case sbMatchBasis:
			ex.regs.view(op.dst, ex.basis.Bit(int(op.k)), ex.ws/64)
			if charge {
				ex.stats.DRAMReadBytes += ex.loadBytes
			}
		case sbShiftAnd, sbShiftOr, sbShiftAndNot:
			ex.bind(op.a, charge)
			ex.bind(op.c, charge)
			r := ex.regs
			if m := binMask(op.code, r.shiftMask(r.live[op.a], int(op.k)), r.live[op.c]); m == 0 {
				r.zero(op.dst)
			} else {
				r.bin(op.code, op.dst, r.get(op.a), int(op.k), r.get(op.c), m)
			}
			if charge {
				// The shift's charges (incl. barrier-merge) plus the
				// bitwise op's unit pass: identical to the unfused pair.
				ex.chargeShift(op, units)
				ex.stats.UnitOps += units
			}
		case sbFuse2:
			ex.bind(op.a, charge)
			ex.bind(op.b, charge)
			ex.bind(op.c, charge)
			r := ex.regs
			a, b, cw := r.get(op.a), r.get(op.b), r.get(op.c) // before buf: dst may be one of them
			if binMask(op.outer, binMask(op.inner, r.live[op.a], r.live[op.b]), r.live[op.c]) == 0 {
				r.zero(op.dst)
			} else if dst := r.buf(op.dst); fused2(op.inner, op.outer, dst, a, b, cw) == 0 {
				r.zero(op.dst)
			} else {
				r.maskTail(dst)
			}
			if charge {
				ex.stats.UnitOps += 2 * units
			}
		}
		if ex.afterOp != nil {
			ex.afterOp()
		}
	}
	return nil
}

// execBin executes dst = a op b for the four plain bitwise µops. Operands are
// bound first, as a load would, and the result's mask taken before either is
// read: a dead conjunction computes nothing, a live AND, OR or AND-NOT folds
// a deferred operand in — except the right of an AND-NOT, which is forced, as
// either side of an XOR is.
func (ex *Executor) execBin(op *sbOp, charge bool) {
	r := ex.regs
	ex.bind(op.a, charge)
	ex.bind(op.b, charge)
	m := binMask(op.code, r.live[op.a], r.live[op.b])
	if m == 0 {
		r.zero(op.dst)
		return
	}
	if src, k, ok := r.deferredSrc(op.a); ok && op.code != sbXor {
		r.bin(sbShiftCode[op.code], op.dst, src, k, r.get(op.b), m)
		return
	}
	if src, k, ok := r.deferredSrc(op.b); ok && (op.code == sbAnd || op.code == sbOr) {
		r.bin(sbShiftCode[op.code], op.dst, src, k, r.get(op.a), m)
		return
	}
	r.bin(op.code, op.dst, r.get(op.a), 0, r.get(op.b), m)
}

// binMask bounds the live tiles of code(x, y) by its operands' masks, a shifted
// x's already moved by the shift (shiftMask). 0 says the result is known zero
// before a word is read: an absorbing operand is — either side of an AND, the
// left of an AND-NOT — or the two are live in disjoint tiles.
func binMask(code sbOpCode, mx, my uint64) uint64 {
	switch code {
	case sbAnd, sbShiftAnd:
		return mx & my
	case sbAndNot, sbShiftAndNot:
		return mx
	}
	return mx | my
}

// binWords is the word kernel of a bitwise µop over one run of words: for the
// three shift codes dst = code(shift(a, k), c), in being a's neighbour word
// across the edge the shift pulls from, for the four plain ones dst =
// code(a, c). It returns the OR of the words it stored; OR and XOR, which keep
// none, report every column set.
func binWords(code sbOpCode, dst, a, c []uint64, k int, in uint64) uint64 {
	switch code {
	case sbAnd:
		return andWords(dst, a, c)
	case sbAndNot:
		return andNotWords(dst, a, c)
	case sbOr:
		orWords(dst, a, c)
		return ^uint64(0)
	case sbXor:
		xorWords(dst, a, c)
		return ^uint64(0)
	}
	return fusedShiftBin(code, dst, a, c, k, in)
}

// chargeShift accounts a windowed shift's synchronization and shared-memory
// traffic, honoring the barrier-merge schedule (the group descriptor was
// resolved at compile time).
func (ex *Executor) chargeShift(op *sbOp, units int64) {
	ex.stats.UnitOps += 2 * units
	if op.gid < 0 {
		ex.stats.Barriers += 2
		ex.stats.ShiftBarriers += 2
		ex.stats.SMemWriteBytes += ex.windowBytes()
		ex.stats.SMemReadBytes += ex.windowBytes()
		ex.trackSMemPeak(1)
		return
	}
	gid := int(op.gid)
	if ex.wgChargedAt[gid] != ex.wgGen {
		ex.wgChargedAt[gid] = ex.wgGen
		ex.stats.Barriers += 2
		ex.stats.ShiftBarriers += 2
		// One shared-memory store per distinct source in the group
		// (redundant-copy elimination, Section 5.3).
		n := ex.k.nsrcs[gid]
		ex.stats.SMemWriteBytes += int64(n) * ex.windowBytes()
		ex.trackSMemPeak(int(n))
	}
	ex.stats.SMemReadBytes += ex.windowBytes()
}

// fusedShiftBin computes dst = op(shift(a, k), c) in one pass, |k| in
// 1..63, and returns the OR of every word it stored (zero: dst is all zero).
// in is the word of a just outside the pass — below a[0] for an advance, above
// a[n-1] for a lookback — whose bits the shift pulls in: 0 at a window's edge,
// the neighbour's word for a run of tiles inside one. Iteration order follows
// AdvanceWords/LookbackWords (downward for advances, upward for lookbacks) so
// dst may alias a or c. The shift counts are reduced mod 64 — a no-op for these
// k — so the compiler sees them bounded and emits bare shift instructions.
func fusedShiftBin(code sbOpCode, dst, a, c []uint64, k int, in uint64) (or uint64) {
	n := len(dst)
	if n == 0 {
		return 0
	}
	a, c = a[:n], c[:n]
	if k > 0 {
		s := uint(k) % 64
		r := (64 - s) % 64
		switch code {
		case sbShiftAnd:
			for i := n - 1; i >= 1; i-- {
				w := ((a[i] << s) | (a[i-1] >> r)) & c[i]
				dst[i] = w
				or |= w
			}
			w := ((a[0] << s) | (in >> r)) & c[0]
			dst[0] = w
			or |= w
		case sbShiftOr:
			for i := n - 1; i >= 1; i-- {
				w := ((a[i] << s) | (a[i-1] >> r)) | c[i]
				dst[i] = w
				or |= w
			}
			w := ((a[0] << s) | (in >> r)) | c[0]
			dst[0] = w
			or |= w
		case sbShiftAndNot:
			for i := n - 1; i >= 1; i-- {
				w := ((a[i] << s) | (a[i-1] >> r)) &^ c[i]
				dst[i] = w
				or |= w
			}
			w := ((a[0] << s) | (in >> r)) &^ c[0]
			dst[0] = w
			or |= w
		}
		return or
	}
	s := uint(-k) % 64
	r := (64 - s) % 64
	switch code {
	case sbShiftAnd:
		for i := 0; i < n-1; i++ {
			w := ((a[i] >> s) | (a[i+1] << r)) & c[i]
			dst[i] = w
			or |= w
		}
		w := ((a[n-1] >> s) | (in << r)) & c[n-1]
		dst[n-1] = w
		or |= w
	case sbShiftOr:
		for i := 0; i < n-1; i++ {
			w := ((a[i] >> s) | (a[i+1] << r)) | c[i]
			dst[i] = w
			or |= w
		}
		w := ((a[n-1] >> s) | (in << r)) | c[n-1]
		dst[n-1] = w
		or |= w
	case sbShiftAndNot:
		for i := 0; i < n-1; i++ {
			w := ((a[i] >> s) | (a[i+1] << r)) &^ c[i]
			dst[i] = w
			or |= w
		}
		w := ((a[n-1] >> s) | (in << r)) &^ c[n-1]
		dst[n-1] = w
		or |= w
	}
	return or
}

// fused2 computes dst = outer(inner(a, b), c), inner and outer each And, Or or
// AndNot, in one straight loop over the words — no intermediate, no dispatch
// inside the loop — and returns the OR of every word it stored, like
// fusedShiftBin. Elementwise, so dst may alias any operand. Any other pair
// stores nothing: tryFuse never makes one.
func fused2(inner, outer sbOpCode, dst, a, b, c []uint64) (or uint64) {
	n := len(dst)
	a, b, c = a[:n], b[:n], c[:n]
	switch inner<<4 | outer {
	case sbAnd<<4 | sbAnd:
		for i := range dst {
			w := (a[i] & b[i]) & c[i]
			dst[i] = w
			or |= w
		}
	case sbOr<<4 | sbAnd:
		for i := range dst {
			w := (a[i] | b[i]) & c[i]
			dst[i] = w
			or |= w
		}
	case sbAndNot<<4 | sbAnd:
		for i := range dst {
			w := (a[i] &^ b[i]) & c[i]
			dst[i] = w
			or |= w
		}
	case sbAnd<<4 | sbOr:
		for i := range dst {
			w := (a[i] & b[i]) | c[i]
			dst[i] = w
			or |= w
		}
	case sbOr<<4 | sbOr:
		for i := range dst {
			w := (a[i] | b[i]) | c[i]
			dst[i] = w
			or |= w
		}
	case sbAndNot<<4 | sbOr:
		for i := range dst {
			w := (a[i] &^ b[i]) | c[i]
			dst[i] = w
			or |= w
		}
	case sbAnd<<4 | sbAndNot:
		for i := range dst {
			w := (a[i] & b[i]) &^ c[i]
			dst[i] = w
			or |= w
		}
	case sbOr<<4 | sbAndNot:
		for i := range dst {
			w := (a[i] | b[i]) &^ c[i]
			dst[i] = w
			or |= w
		}
	case sbAndNot<<4 | sbAndNot:
		for i := range dst {
			w := (a[i] &^ b[i]) &^ c[i]
			dst[i] = w
			or |= w
		}
	}
	return or
}
