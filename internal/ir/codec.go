package ir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Packed program codec: a compact, deterministic byte form of a Program.
//
// The packed form is the engine's resident representation (a handful of
// bytes per instruction instead of the 48 a decoded assignment takes, its
// Assign and its slot in a statement list) and the payload the snapshot
// format persists per group. Both uses share one invariant:
// EncodeProgram is a pure function of program structure, so
// EncodeProgram(DecodeProgram(b)) == b and structurally identical programs
// encode byte-identically.
//
// Statement and expression tags are frozen (they are also the snapshot v1
// wire values); new tags append and require a snapshot format-version bump.
// Statement tag 2 and expression tag 6 are reserved: they carried an if
// statement and a raw addition, which no compile ever emitted, and a packed
// program holding either is refused like any unknown tag. An expression is
// its tag, the Op for tagBin, then the operands Op.Arity names and, for a
// shift or a basis read, K.
const (
	tagAssign = 1
	tagWhile  = 3
	tagGuard  = 4

	tagZero       = 0
	tagOnes       = 1
	tagCopy       = 2
	tagNot        = 3
	tagBin        = 4
	tagShift      = 5
	tagStarThru   = 7
	tagMatchBasis = 8
)

// opTag is each operation's expression tag. tagOp inverts it, the bin
// sub-op aside, and maps the reserved tag 6 to NumOps.
var (
	opTag = [NumOps]uint8{OpAnd: tagBin, OpOr: tagBin, OpXor: tagBin, OpAndNot: tagBin, OpZero: tagZero, OpOnes: tagOnes,
		OpCopy: tagCopy, OpNot: tagNot, OpShift: tagShift, OpStarThru: tagStarThru, OpBasis: tagMatchBasis}
	tagOp = [...]Op{tagZero: OpZero, tagOnes: OpOnes, tagCopy: OpCopy, tagNot: OpNot, tagBin: OpAnd, tagShift: OpShift,
		6: NumOps, tagStarThru: OpStarThru, tagMatchBasis: OpBasis}
)

// hasK reports whether op's K is part of its packed form.
func hasK(op Op) bool { return op == OpShift || op == OpBasis }

// ErrMalformed is what DecodeProgram's errors wrap: the bytes are not a
// packed program.
var ErrMalformed = errors.New("ir: malformed packed program")

// EncodeProgram serializes p into its packed byte form.
//
// Layout (all varint/uvarint, strings length-prefixed):
//
//	num-vars, ext-bits,
//	output count × {name, var, nullable},
//	statement tree (tagged pre-order),
//	barrier flag [+ merge-size, deduped-copies,
//	              group count × member count × pre-order assign index]
func EncodeProgram(p *Program) []byte {
	e := encPool.Get().(*progEnc)
	e.b = e.b[:0]
	e.varint(int64(p.NumVars))
	e.varint(int64(p.ExtBits))
	e.count(len(p.Outputs))
	for _, o := range p.Outputs {
		e.str(o.Name)
		e.varint(int64(o.Var))
		e.boolean(o.Nullable)
	}
	e.stmts(p.Stmts)
	// The barrier schedule references statements by pointer identity;
	// persist it as indices into the program's pre-order *Assign sequence
	// and rebuild the pointers at decode. Only the members need an index.
	if p.Barriers == nil {
		e.boolean(false)
	} else {
		e.boolean(true)
		index := e.index
		for _, grp := range p.Barriers.Groups {
			for _, a := range grp {
				index[a] = 0
			}
		}
		i := 0
		WalkStmts(p.Stmts, func(s Stmt) {
			if a, ok := s.(*Assign); ok {
				if _, member := index[a]; member {
					index[a] = i
				}
				i++
			}
		})
		e.varint(int64(p.Barriers.MergeSize))
		e.varint(int64(p.Barriers.DedupedCopies))
		e.count(len(p.Barriers.Groups))
		for _, grp := range p.Barriers.Groups {
			e.count(len(grp))
			for _, a := range grp {
				e.varint(int64(index[a]))
			}
		}
		clear(index)
	}
	out := slices.Clone(e.b)
	encPool.Put(e)
	return out
}

// DecodeProgram parses a packed program. It checks structural framing only;
// callers that execute the result must still run Validate (decode of bytes
// produced by EncodeProgram from a validated program cannot fail). Its
// errors wrap ErrMalformed.
func DecodeProgram(data []byte) (*Program, error) {
	d := &progDec{b: data}
	p := &Program{}
	p.NumVars = int(d.varint("num-vars"))
	p.ExtBits = int(d.varint("ext-bits"))
	no := d.count("output", 3)
	p.Outputs = make([]Output, no)
	for i := range p.Outputs {
		p.Outputs[i].Name = d.str("output name")
		p.Outputs[i].Var = VarID(d.varint("output var"))
		p.Outputs[i].Nullable = d.boolean("output nullable")
	}
	// The statements are allocated in two blocks, assignments and guards,
	// sized by a first pass over the tree; the assignments land in
	// pre-order, so a barrier member's index is its slot.
	nAssign, nGuard := d.tally()
	d.assigns, d.guards = make([]Assign, nAssign), make([]Guard, nGuard)
	slab := d.assigns
	p.Stmts = d.stmts()
	if d.boolean("barrier-schedule flag") {
		bs := &BarrierSchedule{
			MergeSize:     int(d.varint("merge-size")),
			DedupedCopies: int(d.varint("deduped-copies")),
		}
		ng := d.count("barrier group", 1)
		bs.Groups = make([][]*Assign, 0, ng)
		members := make([]*Assign, 0, len(d.b)) // each member is at least one byte
		for i := 0; i < ng && d.err == nil; i++ {
			na := d.count("barrier member", 1)
			from := len(members)
			for j := 0; j < na && d.err == nil; j++ {
				idx := d.varint("barrier assign index")
				if idx < 0 || idx >= int64(len(slab)) {
					d.fail("barrier assign index out of range")
					break
				}
				members = append(members, &slab[idx])
			}
			bs.Groups = append(bs.Groups, members[from:len(members):len(members)])
		}
		p.Barriers = bs
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d undecoded trailing bytes", ErrMalformed, len(d.b))
	}
	return p, nil
}

// MustDecodeProgram decodes bytes known to have come from EncodeProgram of a
// validated program (the engine's packed-group hot path). It panics on
// malformed input, which would indicate memory corruption, not bad user data.
func MustDecodeProgram(data []byte) *Program {
	p, err := DecodeProgram(data)
	if err != nil {
		panic("ir: corrupt packed program: " + err.Error())
	}
	return p
}

// ---- packed-payload primitives ----

// progEnc is an appending payload writer. EncodeProgram takes one from
// encPool and returns an exact copy of what it wrote, so the buffer's growth
// is paid once per pool, not once per program; index is the barrier members'
// pre-order positions, empty between programs.
type progEnc struct {
	b     []byte
	index map[*Assign]int
}

var encPool = sync.Pool{New: func() any { return &progEnc{index: make(map[*Assign]int)} }}

func (e *progEnc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *progEnc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *progEnc) count(n int)      { e.uvarint(uint64(n)) }

func (e *progEnc) boolean(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *progEnc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *progEnc) stmts(list []Stmt) {
	e.count(len(list))
	for _, s := range list {
		switch x := s.(type) {
		case *Assign:
			e.uvarint(tagAssign)
			e.varint(int64(x.Dst))
			e.expr(x.Expr)
		case *While:
			e.uvarint(tagWhile)
			e.varint(int64(x.Cond))
			e.stmts(x.Body)
		case *Guard:
			e.uvarint(tagGuard)
			e.varint(int64(x.Cond))
			e.varint(int64(x.Skip))
		default:
			panic("ir: unknown statement type in EncodeProgram")
		}
	}
}

func (e *progEnc) expr(x Expr) {
	e.uvarint(uint64(opTag[x.Op]))
	if x.Op.IsBin() {
		e.uvarint(uint64(x.Op))
	}
	if n := x.Op.Arity(); n > 0 {
		e.varint(int64(x.X))
		if n > 1 {
			e.varint(int64(x.Y))
		}
	}
	if hasK(x.Op) {
		e.varint(int64(x.K))
	}
}

// progDec is a consuming payload reader: the first malformed field latches
// an error and every later read returns zero values. assigns and guards are
// the blocks the statements it decodes are taken from.
type progDec struct {
	b       []byte
	err     error
	assigns []Assign
	guards  []Guard
}

func (d *progDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, what)
	}
}

func (d *progDec) uvarint(what string) uint64 { return d.uvarintOf(what, "") }

// uvarintOf is uvarint of the field named what+part, a name it spells out
// only on failure.
func (d *progDec) uvarintOf(what, part string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what + part)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *progDec) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count bounds element counts by the remaining payload so a corrupted count
// can never drive a huge allocation.
func (d *progDec) count(what string, minBytes int) int {
	v := d.uvarintOf(what, " count")
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(len(d.b)/minBytes) {
		d.fail(what + " count exceeds payload")
		return 0
	}
	return int(v)
}

func (d *progDec) boolean(what string) bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.fail(what)
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.fail(what)
		return false
	}
	return v == 1
}

func (d *progDec) str(what string) string {
	n := d.uvarintOf(what, " length")
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail(what + " length exceeds payload")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *progDec) stmts() []Stmt {
	n := d.count("statement", 2)
	out := make([]Stmt, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		switch tag := d.uvarint("statement tag"); tag {
		case tagAssign:
			a := &d.assigns[0]
			d.assigns = d.assigns[1:]
			a.Dst = VarID(d.varint("assign dst"))
			a.Expr = d.expr()
			out = append(out, a)
		case tagWhile:
			s := &While{Cond: VarID(d.varint("while cond"))}
			s.Body = d.stmts()
			out = append(out, s)
		case tagGuard:
			g := &d.guards[0]
			d.guards = d.guards[1:]
			g.Cond = VarID(d.varint("guard cond"))
			g.Skip = int(d.varint("guard skip"))
			out = append(out, g)
		default:
			d.fail("statement tag")
		}
	}
	return out
}

// tally counts the assignments and guards of the statement tree ahead of d
// without consuming it or building anything. On malformed bytes it stops
// where it is: its counts then bound what stmts decodes before failing at
// the same field.
func (d progDec) tally() (assigns, guards int) {
	d.skipStmts(&assigns, &guards)
	return assigns, guards
}

func (d *progDec) skipStmts(assigns, guards *int) {
	n := d.count("statement", 2)
	for i := 0; i < n && d.err == nil; i++ {
		switch d.uvarint("statement tag") {
		case tagAssign:
			*assigns++
			d.varint("assign dst")
			d.expr()
		case tagWhile:
			d.varint("while cond")
			d.skipStmts(assigns, guards)
		case tagGuard:
			*guards++
			d.varint("guard cond")
			d.varint("guard skip")
		default:
			return
		}
	}
}

func (d *progDec) expr() (x Expr) {
	tag := d.uvarint("expression tag")
	if tag >= uint64(len(tagOp)) || tagOp[tag] == NumOps {
		d.fail("expression tag")
		return x
	}
	if x.Op = tagOp[tag]; tag == tagBin {
		op := d.uvarint("bin op")
		if op > uint64(OpAndNot) {
			d.fail("bin op")
			return Expr{}
		}
		x.Op = Op(op)
	}
	if n := x.Op.Arity(); n > 0 {
		x.X = VarID(d.varint("operand"))
		if n > 1 {
			x.Y = VarID(d.varint("second operand"))
		}
	}
	if hasK(x.Op) {
		k := d.varint("shift distance or basis bit")
		if k != int64(int32(k)) {
			d.fail("shift distance or basis bit out of range")
			return Expr{}
		}
		x.K = int32(k)
	}
	return x
}
