package engine

import (
	"slices"
	"unsafe"

	"bitgen/internal/arena"
	"bitgen/internal/bitstream"
	"bitgen/internal/charclass"
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

// classOpKind is the bitwise operation of a classOp.
type classOpKind int32

const (
	opAnd classOpKind = iota
	opOr
	opXor
	opAndNot // x &^ y
)

// classOp computes one tile of slot dst as slot x op slot y. It is 16 bytes,
// the size ResidentBytes charges an op.
type classOp struct {
	op        classOpKind
	dst, x, y int32
}

// classOpBytes is what one op of a compiled evaluator keeps resident.
const classOpBytes = int64(unsafe.Sizeof(classOp{}))

// classEval is the shared classes as the host computes them: straight-line
// binary ops, value-numbered so that no two compute the same expression, and
// register-allocated by last use.
type classEval struct {
	ops        []classOp
	outs, regs int
}

// classBuilder value-numbers the ops a set of classes compiles to. vals[v] is
// value v: an op over earlier values x and y (commutative ones in ascending
// order) and, once it has one, its slot dst. The first classInputs values are
// the input slots; last[v] is v's last reader. nibble[q] memoizes quad q's
// 4-bit predicates by truth table: quad 0 is planes b0–b3 (the high nibble,
// b0 its most significant bit), quad 1 planes b4–b7 (the low nibble), and bit
// t of a table is set when the predicate holds for nibble value t.
type classBuilder struct {
	vals   []classOp
	last   []int
	index  map[classOp]int32
	nibble [2]map[uint16]int32
}

// node returns the value x op y, adding it unless an equal one exists. An
// And with the all-ones slot is its other operand.
func (b *classBuilder) node(op classOpKind, x, y int32) int32 {
	switch {
	case op == opAnd && x == slotOnes:
		return y
	case op == opAnd && y == slotOnes:
		return x
	case op != opAndNot && x > y:
		x, y = y, x
	}
	v := classOp{op: op, dst: -1, x: x, y: y}
	n, seen := b.index[v]
	if !seen {
		n = int32(len(b.vals))
		b.index[v] = n
		b.vals, b.last = append(b.vals, v), append(b.last, 0)
		b.last[x], b.last[y] = int(n), int(n)
	}
	return n
}

// nibbleMasks[k] is the set of nibble values where plane 4·quad+k reads 0:
// those whose bit 3-k is clear.
var nibbleMasks = [4]uint16{0x00ff, 0x0f0f, 0x3333, 0x5555}

// pred returns the value of a 4-bit predicate that is not always false (one
// always true is the all-ones slot), decomposed on the first of its quad's
// planes it reads, most significant first (a BDD over four variables; a
// predicate that does not read a plane has equal halves along it), every
// sub-predicate memoized across classes.
func (b *classBuilder) pred(quad int, table uint16) int32 {
	if table == 0xffff {
		return slotOnes
	}
	if v, ok := b.nibble[quad][table]; ok {
		return v
	}
	var v int32
	for bit, m := range nibbleMasks {
		// The cofactors where the plane reads 0 and 1, spread over both halves.
		sh := uint(8 >> bit)
		f0, f1 := table&m, table&^m
		f0, f1 = f0|f0<<sh, f1|f1>>sh
		if f0 == f1 {
			continue
		}
		x := int32(4*quad + bit)
		switch {
		case f0 == 0:
			v = b.node(opAnd, x, b.pred(quad, f1))
		case f1 == 0:
			v = b.node(opAndNot, b.pred(quad, f0), x)
		case f1 == 0xffff:
			v = b.node(opOr, x, b.pred(quad, f0))
		case f0 == 0xffff: // ¬x ∨ f1 = ¬(x ∧ ¬f1)
			v = b.node(opAndNot, slotOnes, b.node(opAndNot, x, b.pred(quad, f1)))
		case f1 == ^f0:
			v = b.node(opXor, x, b.pred(quad, f0))
		default:
			v = b.node(opOr, b.node(opAnd, x, b.pred(quad, f1)), b.node(opAndNot, b.pred(quad, f0), x))
		}
		break // the remaining planes are f0's and f1's to decide
	}
	b.nibble[quad][table] = v
	return v
}

// class returns the value of cl's match stream: the OR, over the distinct
// non-empty rows of low nibbles, of (the high nibbles holding that row) ∧ (the
// row). A class of more than 128 bytes is the complement of the rest.
func (b *classBuilder) class(cl charclass.Class) int32 {
	neg := cl.Size() > 128
	if neg {
		cl = cl.Negate()
	}
	set := cl.Bytes()
	var rows [16]uint16 // rows[h]: the low nibbles l with byte h<<4|l in cl
	for h := range rows {
		rows[h] = uint16(set[2*h]) | uint16(set[2*h+1])<<8
	}
	v := int32(-1)
	for h, row := range rows {
		if row == 0 || slices.Index(rows[:h], row) >= 0 {
			continue
		}
		var his uint16
		for g := h; g < len(rows); g++ {
			if rows[g] == row {
				his |= 1 << g
			}
		}
		term := b.node(opAnd, b.pred(0, his), b.pred(1, row))
		if v < 0 {
			v = term
		} else {
			v = b.node(opOr, v, term)
		}
	}
	switch {
	case v < 0 && neg: // every byte
		return slotOnes
	case v < 0:
		return b.node(opAndNot, slotOnes, slotOnes)
	case neg:
		return b.node(opAndNot, slotOnes, v)
	}
	return v
}

// newClassEval compiles shared classes, output i computing sets[i]'s match
// stream over the raw basis. Any list of sets compiles.
func newClassEval(sets []charclass.Class) *classEval {
	b := &classBuilder{
		vals:   make([]classOp, classInputs),
		last:   make([]int, classInputs),
		index:  make(map[classOp]int32),
		nibble: [2]map[uint16]int32{{}, {}},
	}
	for j := range b.vals {
		b.vals[j].dst = int32(j)
	}
	num := make([]int32, len(sets))
	for i, cl := range sets {
		num[i] = b.class(cl)
	}
	vals, last := b.vals, b.last

	// An output's value is computed straight into its stream; an input, or a
	// value an earlier output holds, is copied there (v | v).
	ev := &classEval{outs: len(sets)}
	for i, v := range num {
		if vals[v].dst >= 0 {
			vals, last = append(vals, classOp{op: opOr, x: v, y: v}), append(last, 0)
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
	return ev
}

// run runs every op over the first n words of each slot. It is a function of
// its own so that nothing of the caller's stays live in its loops: a spill
// reloaded inside one costs a load per word.
func (ev *classEval) run(slots [][]uint64, n int) {
	for _, op := range ev.ops {
		d, x, y := slots[op.dst][:n], slots[op.x][:n], slots[op.y][:n]
		switch op.op {
		case opAnd:
			for i := range d {
				d[i] = x[i] & y[i]
			}
		case opOr:
			for i := range d {
				d[i] = x[i] | y[i]
			}
		case opXor:
			for i := range d {
				d[i] = x[i] ^ y[i]
			}
		case opAndNot:
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
