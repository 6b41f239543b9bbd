package passes

import (
	"sync"

	"bitgen/internal/ir"
)

// scratch is the working memory a pass needs and its program does not keep:
// tables indexed by VarID or by statement position, and statement buffers.
// A pass sizes what it uses to the program at hand and leaves the capacity
// behind, so a fixpoint round, a run and — through scratchPool — the next CTA
// group reuse what the first one grew instead of rebuilding it.
//
// The pool is package-level rather than owned by whoever runs the groups:
// the exported pass signatures stay as they are, a caller running the passes
// serially gets the same reuse, and the engine's fan-out needs to know
// nothing about what a pass allocates. A pass takes one scratch for its whole
// call and returns it only on a normal exit, with every pointer into the
// program cleared (release); one abandoned by a panic is left to the
// collector rather than pooled half-reset.
type scratch struct {
	// VarID-indexed.
	uses   []int32      // reads of each variable, program-wide
	defIdx []int32      // Rebalance: defining index within the current run, -1 outside it
	redef  []bool       // Rebalance: assigned more than once within the current run
	depth  []int        // Rebalance: dataflow depth at the current run
	defOf  []*ir.Assign // the variable's one definition, or redefined, or nil
	mark   []uint8      // dead-code elimination: pinned / dead bits of that one definition
	reads  []runReads   // InsertGuards: where the current run reads the variable
	stack  []ir.VarID   // dead-code worklist
	// Rebalance, indexed by readKey (variable and shift direction): how many
	// lifted orphans read the variable, and the keys fusion looks at this round.
	orphanReads []int32
	offered     []int32
	// Position-indexed.
	run     []*ir.Assign // the current straight-line run
	preAt   []int32      // Rebalance: body positions that get pre-statements, ascending,
	pre     []ir.Stmt    // and the two statements (counter, inner) spliced before each
	onPath  []int32      // InsertGuards: zero-path stamp per run position
	taken   []bool       // InsertGuards: run position already anchors a guard
	inserts []insertion  // InsertGuards: guards planned for the current body
	guardAt []int32      // InsertGuards: per body position, index into inserts or -1
}

// runReads summarizes the reads of one variable within a straight-line run:
// how many there are, and the first and last run position that reads it
// (meaningful only when n is non-zero).
type runReads struct{ n, first, last int32 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns s to the pool holding capacity only: nothing in it points
// into the program it last served.
func (s *scratch) release() {
	clear(s.defOf[:cap(s.defOf)])
	clear(s.run[:cap(s.run)])
	clear(s.pre[:cap(s.pre)])
	scratchPool.Put(s)
}

// redefined stands in defOf for a variable with several definitions. Its nil
// Expr fails every expression type switch, so code looking for a particular
// defining expression needs no separate test for it.
var redefined = new(ir.Assign)

// analyze fills, in one walk of the program, s.uses — every read of a
// variable program-wide: assignment operands, If/While/Guard conditions, and
// outputs — and s.defOf: each variable's single defining assignment,
// redefined when it has more than one, nil when it has none.
func (s *scratch) analyze(p *ir.Program) (uses []int32, defOf []*ir.Assign) {
	s.uses = grown(s.uses[:0], p.NumVars, 0)
	s.defOf = grown(s.defOf[:0], p.NumVars, nil)
	uses, defOf = s.uses, s.defOf
	var buf [2]ir.VarID
	ir.WalkStmts(p.Stmts, func(st ir.Stmt) {
		switch x := st.(type) {
		case *ir.Assign:
			for _, v := range ir.OperandsInto(x.Expr, &buf) {
				uses[v]++
			}
			if defOf[x.Dst] != nil {
				defOf[x.Dst] = redefined
			} else {
				defOf[x.Dst] = x
			}
		case *ir.If:
			uses[x.Cond]++
		case *ir.While:
			uses[x.Cond]++
		case *ir.Guard:
			uses[x.Cond]++
		}
	})
	for _, o := range p.Outputs {
		uses[o.Var]++
	}
	return uses, defOf
}

// grown returns s with at least n entries: existing ones are kept, fresh
// ones set to fill. grown(s[:0], n, fill) therefore refills the whole table.
func grown[T any](s []T, n int, fill T) []T {
	old := len(s)
	if n <= old {
		return s
	}
	if cap(s) < n {
		g := make([]T, old, n+n/2+8)
		copy(g, s)
		s = g
	}
	s = s[:n]
	for i := old; i < n; i++ {
		s[i] = fill
	}
	return s
}
