package rx

import (
	"fmt"
	"strconv"

	"bitgen/internal/charclass"
)

// ParseError describes a syntax error with its byte offset in the pattern.
type ParseError struct {
	Pattern string
	Pos     int
	Msg     string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rx: parse %q at offset %d: %s", e.Pattern, e.Pos, e.Msg)
}

// Options control parsing behaviour.
type Options struct {
	// FoldCase makes every character class case-insensitive (ASCII).
	FoldCase bool
	// MaxRepeat caps the {n,m} bounds to keep lowered programs finite;
	// zero means the default of 1000.
	MaxRepeat int
}

const defaultMaxRepeat = 1000

// Parse parses a pattern with default options.
func Parse(pattern string) (Node, error) {
	return ParseWith(pattern, Options{})
}

// MustParse parses a pattern and panics on error; intended for tests and
// static pattern tables.
func MustParse(pattern string) Node {
	n, err := Parse(pattern)
	if err != nil {
		panic(err)
	}
	return n
}

// ParseWith parses a pattern under the given options.
//
// Supported syntax: literals, '.', '[...]' classes with ranges and '^'
// negation, escapes (\d \D \w \W \s \S \n \t \r \0 \xHH and escaped
// metacharacters), grouping '(...)', alternation '|', and the postfix
// operators '*', '+', '?', '{n}', '{n,}', '{n,m}'. Anchors and
// backreferences are not part of the paper's grammar and are rejected.
func ParseWith(pattern string, opts Options) (Node, error) {
	if opts.MaxRepeat == 0 {
		opts.MaxRepeat = defaultMaxRepeat
	}
	p := &parser{src: pattern, opts: opts}
	n, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.errorf("unexpected %q", p.src[p.pos])
	}
	return n, nil
}

type parser struct {
	src  string
	pos  int
	opts Options
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Pattern: p.src, Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool  { return p.pos >= len(p.src) }
func (p *parser) peek() byte { return p.src[p.pos] }

// parseAlt = parseConcat ('|' parseConcat)*
func (p *parser) parseAlt() (Node, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	alts := []Node{first}
	for !p.eof() && p.peek() == '|' {
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alts = append(alts, next)
	}
	if len(alts) == 1 {
		return first, nil
	}
	return Alt{alts}, nil
}

// parseConcat = parseRepeat*
func (p *parser) parseConcat() (Node, error) {
	var parts []Node
	for !p.eof() && p.peek() != '|' && p.peek() != ')' {
		n, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		// Empty groups like "()" are ε: dropping them from a
		// concatenation preserves the language and keeps rendering
		// canonical (a(())b ≡ ab).
		if c, ok := n.(Concat); ok && len(c.Parts) == 0 {
			continue
		}
		parts = append(parts, n)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return Concat{parts}, nil
}

// parseRepeat = parseAtom ('*' | '+' | '?' | '{n,m}')*
func (p *parser) parseRepeat() (Node, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for !p.eof() {
		switch p.peek() {
		case '*':
			p.pos++
			atom = Repeat{Sub: atom, Min: 0, Max: Unbounded}
		case '+':
			p.pos++
			atom = Repeat{Sub: atom, Min: 1, Max: Unbounded}
		case '?':
			p.pos++
			atom = Repeat{Sub: atom, Min: 0, Max: 1}
		case '{':
			rep, ok, err := p.tryParseBounds()
			if err != nil {
				return nil, err
			}
			if !ok {
				return atom, nil // literal '{' handled by parseAtom next round
			}
			rep.Sub = atom
			atom = rep
		default:
			return atom, nil
		}
	}
	return atom, nil
}

// tryParseBounds parses '{n}', '{n,}' or '{n,m}'. A '{' not followed by a
// well-formed bound is treated as a literal (common in real rule sets), in
// which case ok is false and the position is unchanged.
func (p *parser) tryParseBounds() (Repeat, bool, error) {
	start := p.pos
	p.pos++ // consume '{'
	numStart := p.pos
	for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
		p.pos++
	}
	if p.pos == numStart {
		p.pos = start
		return Repeat{}, false, nil
	}
	minVal, err := strconv.Atoi(p.src[numStart:p.pos])
	if err != nil {
		p.pos = start
		return Repeat{}, false, nil
	}
	maxVal := minVal
	if !p.eof() && p.peek() == ',' {
		p.pos++
		if !p.eof() && p.peek() == '}' {
			maxVal = Unbounded
		} else {
			numStart = p.pos
			for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
				p.pos++
			}
			if p.pos == numStart {
				p.pos = start
				return Repeat{}, false, nil
			}
			maxVal, err = strconv.Atoi(p.src[numStart:p.pos])
			if err != nil {
				p.pos = start
				return Repeat{}, false, nil
			}
		}
	}
	if p.eof() || p.peek() != '}' {
		p.pos = start
		return Repeat{}, false, nil
	}
	p.pos++ // consume '}'
	if maxVal != Unbounded && maxVal < minVal {
		p.pos = start
		return Repeat{}, false, &ParseError{p.src, start, fmt.Sprintf("invalid bounds {%d,%d}", minVal, maxVal)}
	}
	limit := p.opts.MaxRepeat
	if minVal > limit || maxVal > limit {
		p.pos = start
		return Repeat{}, false, &ParseError{p.src, start, fmt.Sprintf("repetition bound exceeds limit %d", limit)}
	}
	return Repeat{Min: minVal, Max: maxVal}, true, nil
}

// parseAtom = literal | '.' | class | group | escape
func (p *parser) parseAtom() (Node, error) {
	if p.eof() {
		return nil, p.errorf("unexpected end of pattern")
	}
	switch c := p.peek(); c {
	case '(':
		p.pos++
		inner, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.peek() != ')' {
			return nil, p.errorf("missing closing ')'")
		}
		p.pos++
		return inner, nil
	case ')':
		return nil, p.errorf("unmatched ')'")
	case '*', '+', '?':
		return nil, p.errorf("repetition operator %q with nothing to repeat", c)
	case '.':
		p.pos++
		return p.cc(charclass.Dot()), nil
	case '[':
		return p.parseClass()
	case '\\':
		return p.parseEscape()
	case '^', '$':
		return nil, p.errorf("anchors are not supported by the bitstream grammar")
	default:
		p.pos++
		return p.cc(charclass.Single(c)), nil
	}
}

// cc wraps a class, applying case folding if configured.
func (p *parser) cc(cl charclass.Class) Node {
	if p.opts.FoldCase {
		cl = cl.FoldCase()
	}
	return CC{cl}
}

// parseEscape handles a backslash escape outside a bracket class.
func (p *parser) parseEscape() (Node, error) {
	cl, err := p.escapeClass()
	if err != nil {
		return nil, err
	}
	return p.cc(cl), nil
}

// escapeClass parses the escape following a '\' and returns its class.
func (p *parser) escapeClass() (charclass.Class, error) {
	p.pos++ // consume '\'
	if p.eof() {
		return charclass.Class{}, p.errorf("trailing backslash")
	}
	c := p.peek()
	p.pos++
	switch c {
	case 'd':
		return charclass.Digit, nil
	case 'D':
		return charclass.Digit.Negate(), nil
	case 'w':
		return charclass.Word, nil
	case 'W':
		return charclass.Word.Negate(), nil
	case 's':
		return charclass.Space, nil
	case 'S':
		return charclass.Space.Negate(), nil
	case 'n':
		return charclass.Single('\n'), nil
	case 't':
		return charclass.Single('\t'), nil
	case 'r':
		return charclass.Single('\r'), nil
	case 'f':
		return charclass.Single('\f'), nil
	case 'v':
		return charclass.Single('\v'), nil
	case 'a':
		return charclass.Single(7), nil
	case '0':
		return charclass.Single(0), nil
	case 'x':
		if p.pos+2 > len(p.src) {
			return charclass.Class{}, p.errorf("truncated \\x escape")
		}
		v, err := strconv.ParseUint(p.src[p.pos:p.pos+2], 16, 8)
		if err != nil {
			return charclass.Class{}, p.errorf("invalid \\x escape %q", p.src[p.pos:p.pos+2])
		}
		p.pos += 2
		return charclass.Single(byte(v)), nil
	default:
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '1' && c <= '9') {
			return charclass.Class{}, p.errorf("unsupported escape \\%c", c)
		}
		return charclass.Single(c), nil // escaped metacharacter
	}
}

// parseClass parses a bracket expression '[...]'.
func (p *parser) parseClass() (Node, error) {
	p.pos++ // consume '['
	negate := false
	if !p.eof() && p.peek() == '^' {
		negate = true
		p.pos++
	}
	cl := charclass.Empty()
	first := true
	for {
		if p.eof() {
			return nil, p.errorf("missing closing ']'")
		}
		if p.peek() == ']' && !first {
			p.pos++
			break
		}
		first = false
		lo, loIsClass, loClass, err := p.classAtom()
		if err != nil {
			return nil, err
		}
		if loIsClass {
			cl = cl.Union(loClass)
			continue
		}
		// Possible range lo-hi.
		if p.pos+1 < len(p.src) && p.peek() == '-' && p.src[p.pos+1] != ']' {
			p.pos++ // consume '-'
			hi, hiIsClass, _, err := p.classAtom()
			if err != nil {
				return nil, err
			}
			if hiIsClass {
				return nil, p.errorf("invalid range endpoint")
			}
			if lo > hi {
				return nil, p.errorf("invalid range %q-%q", lo, hi)
			}
			cl.AddRange(lo, hi)
			continue
		}
		cl.Add(lo)
	}
	// Fold the listed set before negating it, as Go's (?i) does: under
	// FoldCase [^a] excludes both a and A. The complement of a folded set
	// is folded already.
	if p.opts.FoldCase {
		cl = cl.FoldCase()
	}
	if negate {
		cl = cl.Negate()
	}
	return CC{cl}, nil
}

// classAtom parses one element inside a bracket expression: either a single
// byte (possibly escaped) or a named class escape like \d.
func (p *parser) classAtom() (b byte, isClass bool, cl charclass.Class, err error) {
	if p.eof() {
		return 0, false, charclass.Class{}, p.errorf("missing closing ']'")
	}
	c := p.peek()
	if c != '\\' {
		p.pos++
		return c, false, charclass.Class{}, nil
	}
	// Escape inside class: named classes stay classes, others are bytes.
	if p.pos+1 < len(p.src) {
		switch p.src[p.pos+1] {
		case 'd', 'D', 'w', 'W', 's', 'S':
			cl, err := p.escapeClass()
			return 0, true, cl, err
		}
	}
	cl2, err := p.escapeClass()
	if err != nil {
		return 0, false, charclass.Class{}, err
	}
	if cl2.Size() != 1 {
		return 0, true, cl2, nil
	}
	for v := 0; v < 256; v++ {
		if cl2.Contains(byte(v)) {
			return byte(v), false, charclass.Class{}, nil
		}
	}
	return 0, false, charclass.Class{}, p.errorf("internal: empty escape class")
}
