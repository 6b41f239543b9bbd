package engine

import (
	"fmt"

	"bitgen/internal/arena"
	"bitgen/internal/bitstream"
	"bitgen/internal/ir"
	"bitgen/internal/transpose"
)

const (
	// classTile is how many words of every shared-class stream the evaluator
	// computes before it moves to the next tile (8 KiB of input): a register's
	// tile stays in L1 from the op that writes it to the last one that reads it.
	// It is 16 presence lines (compute).
	classTile = 128
	// The slots an op reads without computing them are the eight basis
	// planes and an all-ones tile; the class streams follow, then registers.
	slotOnes    = transpose.NumBasis
	classInputs = slotOnes + 1
)

// classOp computes one tile of slot dst as slot x op slot y.
type classOp struct {
	op        ir.BinOp
	dst, x, y int32
}

// classEval is the shared-class program as the host runs it: straight-line
// binary ops, value-numbered so that no two compute the same expression, and
// register-allocated by last use.
type classEval struct {
	ops        []classOp
	outs, regs int
}

// newClassEval compiles a shared-class program. It is the trust boundary for
// a restored program too, so it refuses anything lower.SharedProgram does not
// emit: control flow, extended-basis reads, and any expression other than
// Bin, Not, Zero, Ones and a raw MatchBasis.
func newClassEval(p *ir.Program) (*classEval, error) {
	if err := ir.Validate(p); err != nil {
		return nil, err
	}
	if p.ExtBits != 0 {
		return nil, fmt.Errorf("shared-class program declares %d extended basis streams", p.ExtBits)
	}
	// vals[v] is value v: an op over earlier values x and y (commutative ones
	// in ascending order) and, once it has one, its slot dst. The first
	// classInputs values are the input slots; last[v] is v's last reader.
	vals := make([]classOp, classInputs, classInputs+len(p.Stmts))
	for j := range vals {
		vals[j].dst = int32(j)
	}
	last := make([]int, len(vals), cap(vals))
	index := make(map[classOp]int32)
	num := make([]int32, p.NumVars)
	for _, s := range p.Stmts {
		a, ok := s.(*ir.Assign)
		if !ok {
			return nil, fmt.Errorf("shared-class program has a %T statement", s)
		}
		v := classOp{dst: -1}
		switch x := a.Expr.(type) {
		case ir.MatchBasis:
			num[a.Dst] = int32(x.Bit) // a raw plane: Validate bounds it by ExtBits
			continue
		case ir.Zero:
			v.op = ir.OpXor // plane 0 ^ plane 0
		case ir.Ones:
			num[a.Dst] = slotOnes
			continue
		case ir.Not:
			v.op, v.x, v.y = ir.OpAndNot, slotOnes, num[x.Src]
		case ir.Bin:
			if uint(x.Op) > uint(ir.OpAndNot) {
				return nil, fmt.Errorf("shared-class program has binary op %d", x.Op)
			}
			v.op, v.x, v.y = x.Op, num[x.X], num[x.Y]
			if x.Op != ir.OpAndNot && v.x > v.y {
				v.x, v.y = v.y, v.x
			}
		default:
			return nil, fmt.Errorf("shared-class program has a %T expression", a.Expr)
		}
		n, seen := index[v]
		if !seen {
			n = int32(len(vals))
			index[v] = n
			vals, last = append(vals, v), append(last, 0)
			last[v.x], last[v.y] = int(n), int(n)
		}
		num[a.Dst] = n
	}

	// An output's value is computed straight into its stream; an input, or a
	// value an earlier output holds, is copied there (v | v).
	ev := &classEval{outs: len(p.Outputs)}
	for i, o := range p.Outputs {
		v := num[o.Var]
		if vals[v].dst >= 0 {
			vals, last = append(vals, classOp{op: ir.OpOr, x: v, y: v}), append(last, 0)
			v = int32(len(vals) - 1)
		}
		vals[v].dst = int32(classInputs + i)
	}
	regs := int32(classInputs + ev.outs)
	var free []int32
	for v := classInputs; v < len(vals); v++ {
		op := &vals[v]
		// Operands read here for the last time give their registers back
		// first: an op may write the register it reads, word for word.
		for _, u := range [2]int32{op.x, op.y} {
			if last[u] == v && vals[u].dst >= regs {
				free, last[u] = append(free, vals[u].dst), -1
			}
		}
		if op.dst < 0 {
			if n := len(free); n > 0 {
				op.dst, free = free[n-1], free[:n-1]
			} else {
				op.dst = regs + int32(ev.regs)
				ev.regs++
			}
		}
		ev.ops = append(ev.ops, classOp{op: op.op, dst: op.dst, x: vals[op.x].dst, y: vals[op.y].dst})
	}
	return ev, nil
}

// run runs every op over the first n words of each slot. It is a function of
// its own so that nothing of the caller's stays live in its loops: a spill
// reloaded inside one costs a load per word.
func (ev *classEval) run(slots [][]uint64, n int) {
	for _, op := range ev.ops {
		d, x, y := slots[op.dst][:n], slots[op.x][:n], slots[op.y][:n]
		switch op.op {
		case ir.OpAnd:
			for i := range d {
				d[i] = x[i] & y[i]
			}
		case ir.OpOr:
			for i := range d {
				d[i] = x[i] | y[i]
			}
		case ir.OpXor:
			for i := range d {
				d[i] = x[i] ^ y[i]
			}
		case ir.OpAndNot:
			for i := range d {
				d[i] = x[i] &^ y[i]
			}
		}
	}
}

// classStreams is a scan session's side of the evaluator: the class streams,
// bound as the basis's extended streams, their backing store (stride words a
// stream), their presence rows (presW words a line) and the slot table.
type classStreams struct {
	streams []bitstream.Stream
	words   []uint64
	stride  int
	pres    []uint64
	presW   int
	slots   [][]uint64
}

// newClassStreams binds the streams as basis.Ext and borrows the all-ones and
// register tiles from tr.
func newClassStreams(ev *classEval, basis *transpose.Basis, tr *arena.Tracker) *classStreams {
	cs := &classStreams{streams: make([]bitstream.Stream, ev.outs), presW: (ev.outs + 63) / 64,
		slots: make([][]uint64, classInputs+ev.outs+ev.regs)}
	tiles := tr.Words((1 + ev.regs) * classTile)
	for i := range classTile {
		tiles[i] = ^uint64(0)
	}
	cs.slots[slotOnes] = tiles[:classTile]
	for r := range ev.regs {
		cs.slots[classInputs+ev.outs+r] = tiles[(1+r)*classTile:][:classTile]
	}
	basis.Ext = make([]*bitstream.Stream, ev.outs)
	for i := range cs.streams {
		basis.Ext[i] = &cs.streams[i]
	}
	return cs
}

// compute writes ev's class streams of the freshly transposed basis and their
// presence rows, one tile at a time, growing their backing store from tr when
// a chunk outgrows it.
func (cs *classStreams) compute(ev *classEval, basis *transpose.Basis, tr *arena.Tracker) {
	nw, w := bitstream.WordsFor(basis.N), cs.presW
	lines := (nw + transpose.LineWords - 1) / transpose.LineWords
	if nw > cs.stride {
		cs.words, cs.stride = tr.Words(len(cs.streams)*nw), nw
		cs.pres = tr.Words(lines * w)
	}
	for t := 0; t < nw; t += classTile {
		for j := range transpose.NumBasis {
			cs.slots[j] = basis.Streams[j].Words()[t:]
		}
		for i := range cs.streams {
			cs.slots[classInputs+i] = cs.words[i*cs.stride+t:]
		}
		n := min(classTile, nw-t)
		ev.run(cs.slots, n)
		// The tile's rows while its words are in L1.
		rows := cs.pres[t/transpose.LineWords*w:][:(n+transpose.LineWords-1)/transpose.LineWords*w]
		clear(rows)
		for i := range cs.streams {
			transpose.MarkPresence(rows, w, i, cs.slots[classInputs+i][:n])
		}
	}
	// After the ops, not before: Reinit clears the bits past the input in the
	// last word, which the ops that read the all-ones tile set, so the last
	// line's row is derived again.
	var row []uint64
	if nw > 0 {
		row = cs.pres[(lines-1)*w:][:w]
		clear(row)
	}
	for i := range cs.streams {
		words := cs.words[i*cs.stride:]
		cs.streams[i].Reinit(words, basis.N)
		if nw > 0 {
			transpose.MarkPresence(row, w, i, words[(lines-1)*transpose.LineWords:nw])
		}
	}
	basis.Pres, basis.PresW = cs.pres[:lines*w], w
}
