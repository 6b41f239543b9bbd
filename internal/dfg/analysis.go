// Package dfg performs the dataflow analyses of Sections 4-6: cumulative
// shift-offset intervals and the overlap distance Δ (Section 4.2, including
// per-loop dynamic growth rates), topological depths for Shift Rebalancing
// (Section 5.2), and zero-path discovery for Zero Block Skipping
// (Section 6).
package dfg

import (
	"fmt"

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
	// VarInterval is the offset interval of each variable after one
	// once-through execution of every loop body (the static component).
	VarInterval []Interval
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
	// executor accumulates these at runtime to form the dynamic Δ(n).
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
	// free holds the interval buffers of whiles analyzed so far, for the
	// next one's copies: runBody allocates one per nesting level.
	free [][]Interval
}

// Analyze computes offset intervals and loop growth for a program.
func Analyze(p *ir.Program) *Analysis {
	return AnalyzeBody(p.Stmts, p.NumVars)
}

// AnalyzeBody analyzes a statement list in isolation: variables defined
// outside the body are treated as sources with offset interval [0,0] —
// exactly the situation of a fused segment whose inputs are materialized
// streams in global memory.
func AnalyzeBody(stmts []ir.Stmt, numVars int) *Analysis {
	a := &Analysis{
		VarInterval: make([]Interval, numVars),
		LoopGrowth:  make(map[*ir.While]int),
	}
	a.runBody(stmts, a.VarInterval)
	a.free = nil
	for _, iv := range a.VarInterval {
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
	return a
}

// runBody interprets a body abstractly, updating env in place.
func (a *Analysis) runBody(body []ir.Stmt, env []Interval) {
	for _, s := range body {
		switch x := s.(type) {
		case *ir.Assign:
			if _, ok := x.Expr.(ir.StarThru); ok {
				a.HasCarry = true
			}
			env[x.Dst] = exprInterval(x.Expr, env)
		case *ir.While:
			// First once-through gives the static contribution; a second
			// pass measures per-iteration growth.
			first := a.clone(env)
			a.runBody(x.Body, first)
			for i := range env {
				first[i] = first[i].union(env[i]) // zero-iteration path
			}
			second := a.clone(first)
			a.runBody(x.Body, second)
			growth, right := 0, 0
			for i := range second {
				growth = max(growth, second[i].Hi-first[i].Hi)
				right = max(right, first[i].Lo-second[i].Lo)
			}
			if prev, ok := a.LoopGrowth[x]; !ok || growth > prev {
				a.LoopGrowth[x] = growth
			}
			if right > a.LoopRightGrowth[x] {
				if a.LoopRightGrowth == nil {
					a.LoopRightGrowth = make(map[*ir.While]int)
				}
				a.LoopRightGrowth[x] = right
			}
			copy(env, first)
			a.free = append(a.free, first, second)
		case *ir.Guard:
			// No dataflow effect.
		default:
			panic(fmt.Sprintf("dfg: unknown statement %T", s))
		}
	}
}

// clone copies env into a buffer from free.
func (a *Analysis) clone(env []Interval) []Interval {
	var c []Interval
	if n := len(a.free); n > 0 {
		c, a.free = a.free[n-1], a.free[:n-1]
	}
	return append(c[:0], env...)
}

func exprInterval(e ir.Expr, env []Interval) Interval {
	switch x := e.(type) {
	case ir.Zero, ir.Ones, ir.MatchBasis:
		return Interval{}
	case ir.Copy:
		return env[x.Src]
	case ir.Not:
		return env[x.Src]
	case ir.Bin:
		return env[x.X].union(env[x.Y])
	case ir.Shift:
		return env[x.Src].shift(x.K)
	case ir.StarThru:
		// Statically the marker is read at j and j-1 and the class at j;
		// the run-length-dependent reach backwards through C is dynamic
		// (runtime checks handle boundary-crossing carry runs).
		return env[x.M].union(env[x.M].shift(1)).union(env[x.C])
	}
	panic(fmt.Sprintf("dfg: unknown expression %T", e))
}
