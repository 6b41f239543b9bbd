package rx

import (
	"fmt"
	"strings"

	"bitgen/internal/charclass"
)

// ToGoRegexp renders the AST in Go stdlib regexp syntax so tests can use
// regexp as an oracle. Classes containing bytes >= 0x80 are rendered with
// \x escapes; callers comparing against stdlib should restrict inputs to
// ASCII because Go's regexp operates on UTF-8 runes, not bytes.
func ToGoRegexp(n Node) string {
	var b strings.Builder
	writeGo(&b, n)
	return b.String()
}

func writeGo(b *strings.Builder, n Node) {
	switch x := n.(type) {
	case CC:
		writeGoClass(b, x.Class)
	case Concat:
		for _, p := range x.Parts {
			if needsGroup(p) {
				b.WriteString("(?:")
				writeGo(b, p)
				b.WriteString(")")
			} else {
				writeGo(b, p)
			}
		}
	case Alt:
		for i, a := range x.Alts {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString("(?:")
			writeGo(b, a)
			b.WriteString(")")
		}
	case Repeat:
		writeGoSub(b, x.Sub)
		b.WriteString(x.suffix())
	default:
		panic(fmt.Sprintf("rx: unknown node %T", n))
	}
}

func needsGroup(n Node) bool {
	if a, ok := n.(Alt); ok {
		return len(a.Alts) > 1
	}
	return false
}

func writeGoSub(b *strings.Builder, n Node) {
	if cc, ok := n.(CC); ok {
		writeGoClass(b, cc.Class)
		return
	}
	b.WriteString("(?:")
	writeGo(b, n)
	b.WriteString(")")
}

func writeGoClass(b *strings.Builder, cl charclass.Class) {
	if cl.Size() == 1 {
		for c := 0; c < 256; c++ {
			if cl.Contains(byte(c)) {
				writeGoByte(b, byte(c), false)
				return
			}
		}
	}
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
		writeGoByte(b, byte(lo), true)
		if hi > lo {
			b.WriteByte('-')
			writeGoByte(b, byte(hi), true)
		}
	}
	b.WriteByte(']')
}

func writeGoByte(b *strings.Builder, c byte, inClass bool) {
	special := ".*+?()[]{}|\\^$"
	if inClass {
		special = "\\]-^"
	}
	switch {
	case strings.IndexByte(special, c) >= 0:
		b.WriteByte('\\')
		b.WriteByte(c)
	case c >= 0x20 && c < 0x7f:
		b.WriteByte(c)
	default:
		fmt.Fprintf(b, "\\x%02x", c)
	}
}
