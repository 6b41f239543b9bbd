package ir

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// codecFixture builds a program exercising every statement and expression
// form the packed codec must carry, including a barrier schedule and
// extended basis bits.
func codecFixture() *Program {
	p := &Program{NumVars: 12, ExtBits: 3}
	shiftA := &Assign{Dst: 4, Expr: Expr{Op: OpShift, X: 2, K: 1}}
	shiftB := &Assign{Dst: 5, Expr: Expr{Op: OpShift, X: 3, K: -2}}
	p.Stmts = []Stmt{
		&Assign{Dst: 0, Expr: Expr{Op: OpBasis, K: 9}},
		&Assign{Dst: 1, Expr: Expr{Op: OpCopy, X: 0}},
		&Assign{Dst: 2, Expr: Expr{Op: OpNot, X: 1}},
		&Assign{Dst: 3, Expr: Expr{Op: OpAndNot, X: 2, Y: 0}},
		shiftA,
		shiftB,
		&Assign{Dst: 6, Expr: Expr{Op: OpAnd, X: 4, Y: 5}},
		&Assign{Dst: 7, Expr: Expr{Op: OpStarThru, X: 6, Y: 2}},
		&Guard{Cond: 7, Skip: 2},
		&Assign{Dst: 8, Expr: Expr{Op: OpOr, X: 7, Y: 6}},
		&Assign{Dst: 9, Expr: Expr{Op: OpXor, X: 8, Y: 0}},
		&Assign{Dst: 10, Expr: Expr{Op: OpAnd, X: 9, Y: 1}},
		&While{Cond: 10, Body: []Stmt{
			&Assign{Dst: 11, Expr: Expr{Op: OpShift, X: 10, K: 3}},
			&Assign{Dst: 10, Expr: Expr{Op: OpAndNot, X: 11, Y: 9}},
		}},
	}
	p.Outputs = []Output{{Name: "alpha", Var: 9}, {Name: "beta", Var: 10}}
	p.Barriers = &BarrierSchedule{
		MergeSize:     4,
		DedupedCopies: 1,
		Groups:        [][]*Assign{{shiftA, shiftB}},
	}
	return p
}

// TestCodecRoundTrip: decode(encode(p)) preserves program semantics and
// the re-encoding is byte-identical — the property snapshot byte-stability
// rests on.
func TestCodecRoundTrip(t *testing.T) {
	p := codecFixture()
	data := EncodeProgram(p)
	got, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(got); err != nil {
		t.Fatalf("decoded program invalid: %v", err)
	}
	if got.NumVars != p.NumVars || got.ExtBits != p.ExtBits {
		t.Fatalf("header drift: NumVars %d/%d ExtBits %d/%d",
			got.NumVars, p.NumVars, got.ExtBits, p.ExtBits)
	}
	if len(got.Outputs) != len(p.Outputs) {
		t.Fatalf("outputs: %d, want %d", len(got.Outputs), len(p.Outputs))
	}
	for i := range got.Outputs {
		if got.Outputs[i] != p.Outputs[i] {
			t.Fatalf("output %d = %+v, want %+v", i, got.Outputs[i], p.Outputs[i])
		}
	}
	if got.Barriers == nil || got.Barriers.MergeSize != 4 ||
		got.Barriers.DedupedCopies != 1 || len(got.Barriers.Groups) != 1 {
		t.Fatalf("barrier schedule drift: %+v", got.Barriers)
	}
	// Barrier group members must alias the decoded statement objects, not
	// copies: the executor matches them by identity.
	if got.Barriers.Groups[0][0] != got.Stmts[4] || got.Barriers.Groups[0][1] != got.Stmts[5] {
		t.Fatal("barrier group members do not alias decoded statements")
	}
	again := EncodeProgram(got)
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoding not byte-identical: %d vs %d bytes", len(data), len(again))
	}
}

// TestCodecRejectsCorruption: every single-byte corruption of a packed
// program, and random rewrites of a few bytes, must either decode to a
// structurally valid program or fail cleanly — never panic (the decoder
// faces snapshot bytes from disk).
func TestCodecRejectsCorruption(t *testing.T) {
	data := EncodeProgram(codecFixture())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d: decoder panicked: %v", i, r)
				}
			}()
			if p, err := DecodeProgram(mut); err == nil {
				_ = Validate(p) // may fail; must not panic
			}
		}()
	}
	// Random rewrites of up to four bytes, some truncated: the statement
	// blocks sized by the decoder's first pass must hold whatever its second
	// decodes, and a negative variable count must not reach a make.
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 20000; k++ {
		mut := append([]byte(nil), data...)
		for j := rng.Intn(4); j >= 0; j-- {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		}
		if rng.Intn(4) == 0 {
			mut = mut[:rng.Intn(len(mut))]
		}
		if p, err := DecodeProgram(mut); err == nil && Validate(p) == nil {
			_ = EncodeProgram(p)
		}
	}
	if _, err := DecodeProgram(data[:len(data)/2]); err == nil {
		t.Fatal("truncated program decoded without error")
	}
	if _, err := DecodeProgram(nil); err == nil {
		t.Fatal("empty input decoded without error")
	}
}

// TestCodecRefusesReservedTags: statement tag 2 and expression tag 6 carried
// an if statement and a raw addition, which the IR no longer has. Each is
// spliced in where a while and a StarThru — the same layouts — decode, and
// DecodeProgram refuses it with ErrMalformed.
func TestCodecRefusesReservedTags(t *testing.T) {
	for _, c := range []struct {
		name            string
		valid, reserved uint64
		stmt            bool
	}{
		{"statement tag 2", tagWhile, 2, true},
		{"expression tag 6", tagStarThru, 6, false},
	} {
		// S0 = ~0, then while (S0): S0 = 0, or S1 = MatchStar(S0, S0).
		pack := func(tag uint64) []byte {
			var e progEnc
			e.varint(2) // num-vars
			e.varint(0) // ext-bits
			e.count(1)
			e.str("o")
			e.varint(0)
			e.boolean(false)
			e.count(2)
			e.uvarint(tagAssign)
			e.varint(0)
			e.uvarint(tagOnes)
			if c.stmt {
				e.uvarint(tag)
				e.varint(0)
				e.count(1)
				e.uvarint(tagAssign)
				e.varint(0)
				e.uvarint(tagZero)
			} else {
				e.uvarint(tagAssign)
				e.varint(1)
				e.uvarint(tag)
				e.varint(0)
				e.varint(0)
			}
			e.boolean(false)
			return e.b
		}
		p, err := DecodeProgram(pack(c.valid))
		if err != nil {
			t.Fatalf("%s: the valid splice: %v", c.name, err)
		}
		if err := Validate(p); err != nil {
			t.Fatalf("%s: the valid splice: %v", c.name, err)
		}
		if _, err := DecodeProgram(pack(c.reserved)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: %v, want an error wrapping ErrMalformed", c.name, err)
		}
	}
}

// TestDecodeProgramAllocatesPerProgram pins that decoding takes a program's
// assignments from one block and builds their expressions in place: twice the
// assignments cost no more allocations than the constant per-program ones.
func TestDecodeProgramAllocatesPerProgram(t *testing.T) {
	packed := func(links int) []byte {
		b := NewBuilder()
		v := b.Basis(0)
		for range links {
			v = b.And(b.Advance(v, 1), b.Basis(1))
		}
		b.Output("o", v)
		return EncodeProgram(b.Program())
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := DecodeProgram(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	n, n2 := allocs(packed(100)), allocs(packed(200))
	if n2 > n+2 {
		t.Fatalf("DecodeProgram: %v allocations for 402 assignments, %v for 202", n2, n)
	}
}

// FuzzDecodeProgram: arbitrary bytes never panic the decoder, every error
// wraps ErrMalformed, and a program that decodes re-encodes canonically:
// EncodeProgram(DecodeProgram(EncodeProgram(p))) == EncodeProgram(p).
func FuzzDecodeProgram(f *testing.F) {
	f.Add(EncodeProgram(codecFixture()))
	// S0 = ~0, then a statement of tag stmt, or S1 = an expression of tag
	// expr over S0 and S0 (bin op binOp when expr is the bin tag).
	seed := func(stmt, expr, binOp uint64) []byte {
		var e progEnc
		e.varint(2) // num-vars
		e.varint(0) // ext-bits
		e.count(1)
		e.str("o")
		e.varint(0)
		e.boolean(false)
		e.count(2)
		e.uvarint(tagAssign)
		e.varint(0)
		e.uvarint(tagOnes)
		e.uvarint(stmt)
		e.varint(1)
		if stmt == tagAssign {
			e.uvarint(expr)
			if expr == tagBin {
				e.uvarint(binOp)
			}
			e.varint(0)
			e.varint(0)
		}
		e.boolean(false)
		return e.b
	}
	f.Add(seed(2, 0, 0))
	f.Add(seed(tagAssign, 6, 0))
	f.Add(seed(tagAssign, tagBin, uint64(OpAndNot)+1))
	f.Add(seed(tagAssign, tagStarThru, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("error %v does not wrap ErrMalformed", err)
			}
			return
		}
		once := EncodeProgram(p)
		again, err := DecodeProgram(once)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if twice := EncodeProgram(again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding not canonical:\n%x\n%x", once, twice)
		}
	})
}
