// Package dfg performs the dataflow analyses of Sections 4-6: cumulative
// shift-offset intervals and the overlap distance Δ (Section 4.2, including
// per-loop dynamic growth rates), topological depths for Shift Rebalancing
// (Section 5.2), and zero-path discovery for Zero Block Skipping
// (Section 6).
package dfg

import (
	"fmt"
	"slices"
	"sync"

	"bitgen/internal/ir"
)

// Interval is a conservative range [Lo, Hi] of cumulative shift offsets δ:
// computing bit j of a value may read input bits j-Hi .. j-Lo. Advances
// (paper >>) push the interval up; lookbacks (paper <<) push it down.
type Interval struct {
	Lo, Hi int
}

func (iv Interval) union(other Interval) Interval {
	if other.Lo < iv.Lo {
		iv.Lo = other.Lo
	}
	if other.Hi > iv.Hi {
		iv.Hi = other.Hi
	}
	return iv
}

func (iv Interval) shift(k int) Interval {
	return Interval{iv.Lo + k, iv.Hi + k}
}

// Analysis holds the results of analyzing one program.
type Analysis struct {
	// StaticDelta is the paper's Δ without loop accumulation:
	// max over paths of (max δ - min δ), i.e. Hi(max) - Lo(min) over all
	// reachable values.
	StaticDelta int
	// StaticMaxAdvance and StaticMinOffset split StaticDelta into the
	// left-extension (past data) and right-extension (future data)
	// requirements: a window committing [s, e) must cover
	// [s - StaticMaxAdvance, e - StaticMinOffset).
	StaticMaxAdvance int // = max(0, max Hi)
	StaticMinOffset  int // = min(0, min Lo)
	// LoopGrowth maps each while statement to the additional left overlap
	// bits — past data — one extra iteration of its body can require (the
	// paper's μ·k term): the growth of its intervals' Hi. The interleaved
	// executor accumulates these at runtime to form the dynamic Δ(n). Nil
	// when the body holds no loop.
	LoopGrowth map[*ir.While]int
	// LoopRightGrowth maps each while statement whose intervals' Lo falls on
	// every iteration — a body that reads further into future data each time
	// round — to that fall. Lowered programs have none; nil when empty.
	LoopRightGrowth map[*ir.While]int
	// HasDynamic reports whether any loop has non-zero left growth.
	HasDynamic bool
	// HasCarry reports whether the program contains StarThru instructions,
	// whose carry chains create data-dependent cross-block dependencies the
	// executor must check at runtime.
	HasCarry bool
}

// intervals is the working memory of one analysis: the offset interval of
// every variable — after one once-through execution of every loop body, the
// static component — and the spare tables the loops' copies come from
// (runBody takes two per nesting level). Analyses take one from
// intervalPool, so the kernel compiling a program's segments one after
// another keeps reusing the same tables.
type intervals struct {
	a    *Analysis
	free [][]Interval
}

var intervalPool = sync.Pool{New: func() any { return new(intervals) }}

// Analyze computes offset intervals and loop growth for a program.
func Analyze(p *ir.Program) *Analysis {
	return AnalyzeBody(p.Stmts, p.NumVars)
}

// AnalyzeBody analyzes a statement list in isolation: variables defined
// outside the body are treated as sources with offset interval [0,0] —
// exactly the situation of a fused segment whose inputs are materialized
// streams in global memory.
func AnalyzeBody(stmts []ir.Stmt, numVars int) *Analysis {
	a := &Analysis{}
	w := intervalPool.Get().(*intervals)
	w.a = a
	env := slices.Grow(w.clone(nil), numVars)[:numVars]
	clear(env)
	w.runBody(stmts, env)
	for _, iv := range env {
		if iv.Hi > a.StaticMaxAdvance {
			a.StaticMaxAdvance = iv.Hi
		}
		if iv.Lo < a.StaticMinOffset {
			a.StaticMinOffset = iv.Lo
		}
	}
	a.StaticDelta = a.StaticMaxAdvance - a.StaticMinOffset
	for _, g := range a.LoopGrowth {
		if g != 0 {
			a.HasDynamic = true
		}
	}
	w.a, w.free = nil, append(w.free, env)
	intervalPool.Put(w)
	return a
}

// runBody interprets a body abstractly, updating env in place.
func (w *intervals) runBody(body []ir.Stmt, env []Interval) {
	a := w.a
	for _, s := range body {
		switch x := s.(type) {
		case *ir.Assign:
			if x.Expr.Op == ir.OpStarThru {
				a.HasCarry = true
			}
			env[x.Dst] = exprInterval(x.Expr, env)
		case *ir.While:
			// First once-through gives the static contribution; a second
			// pass measures per-iteration growth.
			first := w.clone(env)
			w.runBody(x.Body, first)
			for i := range env {
				first[i] = first[i].union(env[i]) // zero-iteration path
			}
			second := w.clone(first)
			w.runBody(x.Body, second)
			growth, right := 0, 0
			for i := range second {
				growth = max(growth, second[i].Hi-first[i].Hi)
				right = max(right, first[i].Lo-second[i].Lo)
			}
			if prev, ok := a.LoopGrowth[x]; !ok || growth > prev {
				if a.LoopGrowth == nil {
					a.LoopGrowth = make(map[*ir.While]int)
				}
				a.LoopGrowth[x] = growth
			}
			if right > a.LoopRightGrowth[x] {
				if a.LoopRightGrowth == nil {
					a.LoopRightGrowth = make(map[*ir.While]int)
				}
				a.LoopRightGrowth[x] = right
			}
			copy(env, first)
			w.free = append(w.free, first, second)
		case *ir.Guard:
			// No dataflow effect.
		default:
			panic(fmt.Sprintf("dfg: unknown statement %T", s))
		}
	}
}

// clone copies env into a spare table.
func (w *intervals) clone(env []Interval) []Interval {
	var c []Interval
	if n := len(w.free); n > 0 {
		c, w.free = w.free[n-1], w.free[:n-1]
	}
	return append(c[:0], env...)
}

func exprInterval(e ir.Expr, env []Interval) Interval {
	switch e.Op {
	case ir.OpZero, ir.OpOnes, ir.OpBasis:
		return Interval{}
	case ir.OpCopy, ir.OpNot:
		return env[e.X]
	case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpAndNot:
		return env[e.X].union(env[e.Y])
	case ir.OpShift:
		return env[e.X].shift(int(e.K))
	case ir.OpStarThru:
		// Statically the marker is read at j and j-1 and the class at j;
		// the run-length-dependent reach backwards through C is dynamic
		// (runtime checks handle boundary-crossing carry runs).
		return env[e.X].union(env[e.X].shift(1)).union(env[e.Y])
	}
	panic(fmt.Sprintf("dfg: unknown operation %d", e.Op))
}
