package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// readBody reads a body whole, into one buffer when its length is known: up
// to 1 MiB of it is reserved up front, so a false Content-Length reserves no
// more, plus MinRead, so ReadFrom's last, empty read needs no grow.
func readBody(r io.Reader, contentLength int64) ([]byte, error) {
	if contentLength < 0 {
		return io.ReadAll(r)
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(contentLength, 1<<20)+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decodeMatch turns a /v1/match body into its request and the input bytes
// the engine runs on: a canonical body in one pass, any other through
// encoding/json, which defines what the endpoint accepts. Errors are 400s.
func decodeMatch(body []byte) (matchRequest, []byte, error) {
	req, input, ok := decodeCanonical(body)
	if !ok {
		req = matchRequest{}
		if err := json.Unmarshal(body, &req); err != nil {
			return req, nil, fmt.Errorf("invalid JSON body: %w", err)
		}
		input = []byte(req.Input)
	}
	if len(req.Patterns) == 0 {
		return req, nil, errors.New("patterns must be non-empty")
	}
	if req.InputBase64 != "" {
		var err error
		if input, err = base64.StdEncoding.DecodeString(req.InputBase64); err != nil {
			return req, nil, fmt.Errorf("invalid input_base64: %w", err)
		}
	}
	return req, input, nil
}

// decodeCanonical decodes a canonical /v1/match body in one pass, writing the
// input's unescaped bytes straight into the slice it returns: the six keys
// spelled exactly (a repeated one wins, as in encoding/json), strings of valid
// UTF-8 with no surrogate \u escape, a timeout_ms of at most 9 digits without
// a leading zero, true or false flags. Otherwise ok is false.
func decodeCanonical(body []byte) (req matchRequest, input []byte, ok bool) {
	d := canonDecoder{b: body}
	ok = d.next('{')
	var s []byte // the last string read; every string but the input reuses it
	for more := ok && !d.next('}'); more; more, ok = d.sep('}') {
		if s, ok = d.str(s[:0]); !ok || !d.next(':') {
			return req, nil, false
		}
		d.space()
		switch string(s) {
		case "patterns":
			ok = d.next('[')
			req.Patterns = req.Patterns[:0]
			for elems := ok && !d.next(']'); elems; elems, ok = d.sep(']') {
				if s, ok = d.str(s[:0]); !ok {
					return req, nil, false
				}
				req.Patterns = append(req.Patterns, string(s))
			}
		case "input":
			input, ok = d.str(make([]byte, 0, len(d.b)-d.i))
		case "input_base64":
			s, ok = d.str(s[:0])
			req.InputBase64 = string(s)
		case "fold_case":
			req.FoldCase, ok = d.bool()
		case "count_only":
			req.CountOnly, ok = d.bool()
		case "timeout_ms":
			req.TimeoutMS, ok = d.uint()
		default:
			return req, nil, false
		}
		if !ok {
			return req, nil, false
		}
	}
	d.space()
	return req, input, ok && d.i == len(d.b)
}

// plain reports whether a JSON string carries c as itself: printable ASCII
// other than the quote and the backslash.
func plain(c byte) bool { return c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' }

// special reports whether any byte of w is not plain: exactly, since a
// subtraction borrows into a top bit only from a lower byte that is special.
func special(w uint64) bool {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	return ((w-ones*0x20)|(w^(ones*'"')-ones)|(w^(ones*'\\')-ones)|w)&tops != 0
}

// unescape maps the byte after a backslash to its byte, for all but \u.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// canonDecoder is decodeCanonical's cursor over the body.
type canonDecoder struct {
	b []byte
	i int
}

func (d *canonDecoder) space() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// next skips whitespace and consumes c if it comes next.
func (d *canonDecoder) next(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// sep consumes a comma (more follows) or the closing byte (done).
func (d *canonDecoder) sep(closing byte) (more, ok bool) {
	more = d.next(',')
	return more, more || d.next(closing)
}

// str consumes a string and appends its unescaped bytes to dst.
func (d *canonDecoder) str(dst []byte) ([]byte, bool) {
	if !d.next('"') {
		return dst, false
	}
	b, i := d.b, d.i
	for {
		start := i
		for i+8 <= len(b) && !special(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
		}
		for i < len(b) && plain(b[i]) {
			i++
		}
		dst = append(dst, b[start:i]...)
		switch {
		case i == len(b):
			return dst, false
		case b[i] == '"':
			d.i = i + 1
			return dst, true
		case b[i] == '\\' && i+1 < len(b) && unescape[b[i+1]] != 0:
			dst = append(dst, unescape[b[i+1]])
			i += 2
		case b[i] == '\\' && i+5 < len(b) && b[i+1] == 'u':
			r, err := strconv.ParseUint(string(b[i+2:i+6]), 16, 16)
			if err != nil || utf16.IsSurrogate(rune(r)) {
				return dst, false
			}
			dst = utf8.AppendRune(dst, rune(r))
			i += 6
		case b[i] >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return dst, false
			}
			dst = append(dst, b[i:i+n]...)
			i += n
		default: // a control byte or an escape encoding/json decides
			return dst, false
		}
	}
}

func (d *canonDecoder) bool() (v, ok bool) {
	for _, lit := range [...]string{"false", "true"} {
		if rest := d.b[d.i:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
			d.i += len(lit)
			return lit == "true", true
		}
	}
	return false, false
}

// uint consumes a non-negative integer of at most 9 digits, an int on every
// platform, without a leading zero.
func (d *canonDecoder) uint() (int, bool) {
	v, start := 0, d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' && d.i-start < 9 {
		v = v*10 + int(d.b[d.i]-'0')
		d.i++
	}
	return v, d.i > start && (d.b[start] != '0' || d.i == start+1)
}
