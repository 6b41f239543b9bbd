// Package charclass represents regular-expression character classes as
// 256-bit membership sets and compiles them into boolean expressions over
// the eight basis bitstreams.
//
// A character class matches a single byte. The Parabix lowering computes the
// match bitstream of a class from the transposed basis bits: for the literal
// 'a' (01100001) that is ¬b0 ∧ b1 ∧ b2 ∧ ¬b3 ∧ ¬b4 ∧ ¬b5 ∧ ¬b6 ∧ b7. For a
// multi-byte class the per-byte expressions are factored through a BDD-style
// recursive range decomposition so that common classes like [a-z] cost a
// handful of operations rather than 26 full byte tests.
package charclass

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"strings"
)

// Class is a set of byte values. The zero value is the empty class.
type Class struct {
	bits [4]uint64
}

// Empty returns the empty class.
func Empty() Class { return Class{} }

// Single returns the class containing exactly byte c.
func Single(c byte) Class {
	var cl Class
	cl.Add(c)
	return cl
}

// Range returns the class containing bytes lo..hi inclusive.
func Range(lo, hi byte) Class {
	var cl Class
	cl.AddRange(lo, hi)
	return cl
}

// Any returns the class of all 256 byte values.
func Any() Class {
	var cl Class
	for i := range cl.bits {
		cl.bits[i] = ^uint64(0)
	}
	return cl
}

// Dot returns the class for the regex '.' metacharacter: every byte except
// newline.
func Dot() Class {
	cl := Any()
	cl.Remove('\n')
	return cl
}

// Add inserts byte c.
func (cl *Class) Add(c byte) {
	cl.bits[c>>6] |= 1 << (c & 63)
}

// Remove deletes byte c.
func (cl *Class) Remove(c byte) {
	cl.bits[c>>6] &^= 1 << (c & 63)
}

// AddRange inserts bytes lo..hi inclusive. It panics if lo > hi.
func (cl *Class) AddRange(lo, hi byte) {
	if lo > hi {
		panic(fmt.Sprintf("charclass: invalid range %d-%d", lo, hi))
	}
	for c := int(lo); c <= int(hi); c++ {
		cl.Add(byte(c))
	}
}

// Contains reports whether byte c is in the class.
func (cl Class) Contains(c byte) bool {
	return cl.bits[c>>6]&(1<<(c&63)) != 0
}

// Negate returns the complement class.
func (cl Class) Negate() Class {
	var out Class
	for i := range cl.bits {
		out.bits[i] = ^cl.bits[i]
	}
	return out
}

// Union returns cl ∪ other.
func (cl Class) Union(other Class) Class {
	var out Class
	for i := range cl.bits {
		out.bits[i] = cl.bits[i] | other.bits[i]
	}
	return out
}

// Intersect returns cl ∩ other.
func (cl Class) Intersect(other Class) Class {
	var out Class
	for i := range cl.bits {
		out.bits[i] = cl.bits[i] & other.bits[i]
	}
	return out
}

// Equal reports whether two classes contain the same bytes.
func (cl Class) Equal(other Class) bool {
	return cl.bits == other.bits
}

// IsEmpty reports whether the class contains no bytes.
func (cl Class) IsEmpty() bool {
	return cl.bits == [4]uint64{}
}

// Size returns the number of bytes in the class.
func (cl Class) Size() int {
	n := 0
	for _, w := range cl.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Bytes returns the class's 32 membership bytes: bit c%8 of byte c/8 is set
// when c is a member.
func (cl Class) Bytes() [32]byte {
	var b [32]byte
	for i, w := range cl.bits {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}

// FromBytes is the class whose membership bytes are b (see Bytes).
func FromBytes(b [32]byte) Class {
	var cl Class
	for i := range cl.bits {
		cl.bits[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return cl
}

// Key returns a compact content address of the class: its 32 membership
// bytes hex-packed into a fixed-width string. Classes are equal exactly when
// their keys are equal, so the key orders and deduplicates shared
// character-class streams deterministically across engines.
func (cl Class) Key() string {
	b := cl.Bytes()
	return hex.EncodeToString(b[:])
}

// FoldCase returns the class closed under ASCII case folding: if it contains
// a letter it also contains the other case.
func (cl Class) FoldCase() Class {
	out := cl
	for c := byte('a'); c <= 'z'; c++ {
		if cl.Contains(c) {
			out.Add(c - 'a' + 'A')
		}
	}
	for c := byte('A'); c <= 'Z'; c++ {
		if cl.Contains(c) {
			out.Add(c - 'A' + 'a')
		}
	}
	return out
}

// String renders the class in regex-ish notation for diagnostics.
func (cl Class) String() string {
	if cl.IsEmpty() {
		return "[]"
	}
	if cl.Equal(Any()) {
		return "[\\x00-\\xff]"
	}
	var b strings.Builder
	b.WriteByte('[')
	c := 0
	for c < 256 {
		if !cl.Contains(byte(c)) {
			c++
			continue
		}
		lo := c
		for c < 256 && cl.Contains(byte(c)) {
			c++
		}
		hi := c - 1
		writeByteRepr(&b, byte(lo))
		if hi > lo {
			if hi > lo+1 {
				b.WriteByte('-')
			}
			writeByteRepr(&b, byte(hi))
		}
	}
	b.WriteByte(']')
	return b.String()
}

func writeByteRepr(b *strings.Builder, c byte) {
	switch {
	case c == '\\' || c == ']' || c == '-' || c == '^':
		fmt.Fprintf(b, "\\%c", c)
	case c >= 0x20 && c < 0x7f:
		b.WriteByte(c)
	case c == '\n':
		b.WriteString("\\n")
	case c == '\t':
		b.WriteString("\\t")
	case c == '\r':
		b.WriteString("\\r")
	default:
		fmt.Fprintf(b, "\\x%02x", c)
	}
}

// Common named classes used by the parser for escapes like \d, \w, \s.
var (
	Digit = Range('0', '9')
	Word  = func() Class {
		c := Range('a', 'z')
		c = c.Union(Range('A', 'Z'))
		c = c.Union(Digit)
		c.Add('_')
		return c
	}()
	Space = func() Class {
		var c Class
		for _, b := range []byte{' ', '\t', '\n', '\r', '\v', '\f'} {
			c.Add(b)
		}
		return c
	}()
)
