package ir

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Packed program codec: a compact, deterministic byte form of a Program.
//
// The packed form is the engine's resident representation (a handful of
// bytes per instruction instead of ~72 bytes of boxed pointer IR) and the
// payload the snapshot format persists per group. Both uses share one
// invariant: EncodeProgram is a pure function of program structure, so
// EncodeProgram(DecodeProgram(b)) == b and structurally identical programs
// encode byte-identically.
//
// Statement and expression tags are frozen (they are also the snapshot v1
// wire values); new tags append and require a snapshot format-version bump.
// Statement tag 2 and expression tag 6 are reserved: they carried an if
// statement and a raw addition, which no compile ever emitted, and a packed
// program holding either is refused like any unknown tag.
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
	var e progEnc
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
	// and rebuild the pointers at decode.
	if p.Barriers == nil {
		e.boolean(false)
		return e.b
	}
	e.boolean(true)
	index := make(map[*Assign]int)
	WalkStmts(p.Stmts, func(s Stmt) {
		if a, ok := s.(*Assign); ok {
			index[a] = len(index)
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
	return e.b
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
	p.Stmts = d.stmts()
	if d.boolean("barrier-schedule flag") {
		var assigns []*Assign
		WalkStmts(p.Stmts, func(s Stmt) {
			if a, ok := s.(*Assign); ok {
				assigns = append(assigns, a)
			}
		})
		bs := &BarrierSchedule{
			MergeSize:     int(d.varint("merge-size")),
			DedupedCopies: int(d.varint("deduped-copies")),
		}
		ng := d.count("barrier group", 1)
		bs.Groups = make([][]*Assign, 0, ng)
		for i := 0; i < ng && d.err == nil; i++ {
			na := d.count("barrier member", 1)
			grp := make([]*Assign, 0, na)
			for j := 0; j < na && d.err == nil; j++ {
				idx := d.varint("barrier assign index")
				if idx < 0 || idx >= int64(len(assigns)) {
					d.fail("barrier assign index out of range")
					break
				}
				grp = append(grp, assigns[idx])
			}
			bs.Groups = append(bs.Groups, grp)
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

// progEnc is an appending payload writer.
type progEnc struct{ b []byte }

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
	switch v := x.(type) {
	case Zero:
		e.uvarint(tagZero)
	case Ones:
		e.uvarint(tagOnes)
	case Copy:
		e.uvarint(tagCopy)
		e.varint(int64(v.Src))
	case Not:
		e.uvarint(tagNot)
		e.varint(int64(v.Src))
	case Bin:
		e.uvarint(tagBin)
		e.uvarint(uint64(v.Op))
		e.varint(int64(v.X))
		e.varint(int64(v.Y))
	case Shift:
		e.uvarint(tagShift)
		e.varint(int64(v.Src))
		e.varint(int64(v.K))
	case StarThru:
		e.uvarint(tagStarThru)
		e.varint(int64(v.M))
		e.varint(int64(v.C))
	case MatchBasis:
		e.uvarint(tagMatchBasis)
		e.varint(int64(v.Bit))
	default:
		panic("ir: unknown expression type in EncodeProgram")
	}
}

// progDec is a consuming payload reader: the first malformed field latches
// an error and every later read returns zero values.
type progDec struct {
	b   []byte
	err error
}

func (d *progDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, what)
	}
}

func (d *progDec) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what)
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
	v := d.uvarint(what + " count")
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
	n := d.uvarint(what + " length")
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
			a := &Assign{Dst: VarID(d.varint("assign dst"))}
			a.Expr = d.expr()
			out = append(out, a)
		case tagWhile:
			s := &While{Cond: VarID(d.varint("while cond"))}
			s.Body = d.stmts()
			out = append(out, s)
		case tagGuard:
			out = append(out, &Guard{
				Cond: VarID(d.varint("guard cond")),
				Skip: int(d.varint("guard skip")),
			})
		default:
			d.fail("statement tag")
		}
	}
	return out
}

func (d *progDec) expr() Expr {
	switch tag := d.uvarint("expression tag"); tag {
	case tagZero:
		return Zero{}
	case tagOnes:
		return Ones{}
	case tagCopy:
		return Copy{Src: VarID(d.varint("copy src"))}
	case tagNot:
		return Not{Src: VarID(d.varint("not src"))}
	case tagBin:
		op := BinOp(d.uvarint("bin op"))
		if op > OpAndNot {
			d.fail("bin op")
			return Zero{}
		}
		return Bin{Op: op, X: VarID(d.varint("bin x")), Y: VarID(d.varint("bin y"))}
	case tagShift:
		return Shift{Src: VarID(d.varint("shift src")), K: int(d.varint("shift k"))}
	case tagStarThru:
		return StarThru{M: VarID(d.varint("starthru m")), C: VarID(d.varint("starthru c"))}
	case tagMatchBasis:
		return MatchBasis{Bit: int(d.varint("matchbasis bit"))}
	default:
		d.fail("expression tag")
		return Zero{}
	}
}
