package passes

import (
	"sync"

	"bitgen/internal/ir"
)

// scratch is the working memory a pass needs and its program does not keep:
// tables indexed by VarID or by statement position, statement buffers, and
// Rebalance's work form — the program as pointer-free records, on which its
// fixpoint runs. A pass sizes what it uses to the program at hand and leaves
// the capacity behind, so a fixpoint round, a run and — through scratchPool —
// the next CTA group reuse what the first one grew instead of rebuilding it.
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
	uses  []int32    // InsertGuards: reads of each variable, program-wide
	reads []runReads // InsertGuards: where the current run reads the variable
	vars  []variable // Rebalance: uses, definition and run state of each variable
	mark  []uint8    // Rebalance's dead-code elimination: pinned / dead bits of its one record
	stack []int32    // dead-code worklist
	// Rebalance, indexed by readKey (variable and shift direction): how many
	// lifted orphans read the variable, and the keys fusion looks at this round.
	orphanReads []int32
	offered     []int32
	// Rebalance's work form: a record per statement, minted ones appended;
	// each body's record indices (the top level is body 0) and whether it
	// holds a guard; the bodies, each after those it holds; and each
	// converted record's statement, for the write-back.
	recs    []rec
	bodies  [][]int32
	guarded []bool
	post    []int32
	stmts   []ir.Stmt
	// Position-indexed.
	run     []*ir.Assign // InsertGuards: the current straight-line run
	preAt   []int32      // Rebalance: body positions that get pre-statements, ascending,
	pre     []int32      // and the first of the two records (counter, inner) spliced before each
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
	clear(s.stmts[:cap(s.stmts)])
	clear(s.run[:cap(s.run)])
	scratchPool.Put(s)
}

// countUses fills s.uses with every read of a variable program-wide:
// assignment operands, While/Guard conditions, and outputs.
func (s *scratch) countUses(p *ir.Program) {
	s.uses = grown(s.uses[:0], p.NumVars, 0)
	uses := s.uses
	var buf [2]ir.VarID
	ir.WalkStmts(p.Stmts, func(st ir.Stmt) {
		for _, v := range ir.ReadsInto(st, &buf) {
			uses[v]++
		}
	})
	for _, o := range p.Outputs {
		uses[o.Var]++
	}
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
