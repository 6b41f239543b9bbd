package ir

import (
	"fmt"
	"sync"

	"bitgen/internal/charclass"
)

// Builder incrementally constructs a Program with fresh-variable
// bookkeeping and nested control-flow scopes.
type Builder struct {
	prog  *Program
	stack []*[]Stmt // innermost body last
	// slab is where the next assignments are allocated: one block of them at
	// a time, each as large as all the blocks before it, 32 to 1 024.
	slab []Assign
	made int
	// ccCache shares the instruction sequence of repeated character
	// classes within one program (common in multi-regex groups). It comes
	// from ccCachePool and goes back when Program is called.
	ccCache map[charclass.Class]VarID
	// basisCache shares MatchBasis reads.
	basisCache [8]VarID
	// shared maps classes whose match streams the engine computes once per
	// scan to their extended-basis slot; MatchClass reads MatchBasis{8+slot}
	// for them instead of expanding the class inline.
	shared map[charclass.Class]int
}

// ccCachePool recycles the class caches of finished builders: a group's
// lowering fills one with every class it expands, so a fresh map per group
// regrows the same tables.
var ccCachePool = sync.Pool{New: func() any { return make(map[charclass.Class]VarID) }}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	b := &Builder{prog: &Program{}}
	b.stack = append(b.stack, &b.prog.Stmts)
	for i := range b.basisCache {
		b.basisCache[i] = NoVar
	}
	return b
}

func (b *Builder) top() *[]Stmt { return b.stack[len(b.stack)-1] }

// Emit appends an assignment of expr to a fresh variable and returns it.
func (b *Builder) Emit(expr Expr) VarID {
	v := b.prog.NewVar()
	b.EmitTo(v, expr)
	return v
}

// EmitTo appends an assignment of expr to an existing variable.
func (b *Builder) EmitTo(dst VarID, expr Expr) {
	if len(b.slab) == 0 {
		b.slab = make([]Assign, min(max(b.made, 32), 1024))
	}
	a := &b.slab[0]
	b.slab, b.made = b.slab[1:], b.made+1
	a.Dst, a.Expr = dst, expr
	*b.top() = append(*b.top(), a)
}

// NewVar allocates a variable without assigning it.
func (b *Builder) NewVar() VarID { return b.prog.NewVar() }

// Zero emits an all-zero assignment.
func (b *Builder) Zero() VarID { return b.Emit(Zero{}) }

// And emits x & y.
func (b *Builder) And(x, y VarID) VarID { return b.Emit(Bin{OpAnd, x, y}) }

// Or emits x | y.
func (b *Builder) Or(x, y VarID) VarID { return b.Emit(Bin{OpOr, x, y}) }

// AndNot emits x &^ y.
func (b *Builder) AndNot(x, y VarID) VarID { return b.Emit(Bin{OpAndNot, x, y}) }

// Xor emits x ^ y.
func (b *Builder) Xor(x, y VarID) VarID { return b.Emit(Bin{OpXor, x, y}) }

// Not emits ~x.
func (b *Builder) Not(x VarID) VarID { return b.Emit(Not{x}) }

// Advance emits the paper's x >> k (k > 0).
func (b *Builder) Advance(x VarID, k int) VarID {
	if k <= 0 {
		panic(fmt.Sprintf("ir: Advance distance %d", k))
	}
	return b.Emit(Shift{x, k})
}

// While opens a while(cond) block, runs body, and closes it.
func (b *Builder) While(cond VarID, body func()) {
	blk := &While{Cond: cond}
	*b.top() = append(*b.top(), blk)
	b.stack = append(b.stack, &blk.Body)
	body()
	b.stack = b.stack[:len(b.stack)-1]
}

// Basis returns the variable holding basis bitstream j, emitting the read
// on first use.
func (b *Builder) Basis(j int) VarID {
	if b.basisCache[j] != NoVar {
		return b.basisCache[j]
	}
	v := b.Emit(MatchBasis{j})
	b.basisCache[j] = v
	return v
}

// SetShared registers the engine's shared character classes: MatchClass
// reads slot i of the map via MatchBasis{8+i} instead of expanding the
// class, and the built program declares extBits extended basis streams
// (extBits may exceed the map's size when the engine shares more classes
// than this group uses).
func (b *Builder) SetShared(shared map[charclass.Class]int, extBits int) {
	b.shared = shared
	b.prog.ExtBits = extBits
}

// MatchClass expands a character class into bitwise instructions over the
// basis bitstreams (Figure 2 (a)) and returns the match-stream variable.
// Repeated classes are cached, and classes registered via SetShared read
// their precomputed extended-basis stream instead. Only valid at top level
// (outside control flow), which is where lowering emits all class matches.
func (b *Builder) MatchClass(cl charclass.Class) VarID {
	if b.ccCache == nil {
		b.ccCache = ccCachePool.Get().(map[charclass.Class]VarID)
	}
	if v, ok := b.ccCache[cl]; ok {
		return v
	}
	if len(b.stack) != 1 {
		panic("ir: MatchClass inside control flow")
	}
	var v VarID
	if slot, ok := b.shared[cl]; ok {
		// Distinct classes have distinct slots: the class cache is the
		// stream's cache too.
		v = b.Emit(MatchBasis{8 + slot})
	} else {
		v = b.matchExpr(charclass.Compile(cl))
	}
	b.ccCache[cl] = v
	return v
}

func (b *Builder) matchExpr(e charclass.Expr) VarID {
	switch x := e.(type) {
	case charclass.True:
		return b.Emit(Ones{})
	case charclass.False:
		return b.Emit(Zero{})
	case charclass.Basis:
		return b.Basis(x.Bit)
	case charclass.Not:
		return b.Not(b.matchExpr(x.X))
	case charclass.And:
		// ¬x ∧ y and x ∧ ¬y fold into a single AndNot instruction, the
		// form SIMD and GPU ISAs provide natively.
		if nx, ok := x.X.(charclass.Not); ok {
			return b.AndNot(b.matchExpr(x.Y), b.matchExpr(nx.X))
		}
		if ny, ok := x.Y.(charclass.Not); ok {
			return b.AndNot(b.matchExpr(x.X), b.matchExpr(ny.X))
		}
		return b.And(b.matchExpr(x.X), b.matchExpr(x.Y))
	case charclass.Or:
		return b.Or(b.matchExpr(x.X), b.matchExpr(x.Y))
	}
	panic(fmt.Sprintf("ir: unknown class expression %T", e))
}

// Output registers a named output stream.
func (b *Builder) Output(name string, v VarID) {
	b.prog.Outputs = append(b.prog.Outputs, Output{Name: name, Var: v})
}

// OutputNullable registers a named output stream whose regex matches the
// empty string; executors append the end-of-input empty match to it.
func (b *Builder) OutputNullable(name string, v VarID) {
	b.prog.Outputs = append(b.prog.Outputs, Output{Name: name, Var: v, Nullable: true})
}

// Program finalizes and returns the built program. The class cache goes
// back to its pool: a class matched after this call is expanded afresh.
func (b *Builder) Program() *Program {
	if len(b.stack) != 1 {
		panic("ir: unclosed control-flow scope")
	}
	if b.ccCache != nil {
		clear(b.ccCache)
		ccCachePool.Put(b.ccCache)
		b.ccCache = nil
	}
	return b.prog
}
