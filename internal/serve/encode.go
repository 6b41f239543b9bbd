package serve

import (
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// replyBuf is the reusable memory of one /v1/match reply: the encoded body
// and the sorted keys of its counts.
type replyBuf struct {
	b    []byte
	keys []string
}

// replyPool recycles reply buffers; one grown past maxPooledReply is left to
// the collector so a rare huge reply does not stay resident.
var replyPool = sync.Pool{New: func() any { return new(replyBuf) }}

const maxPooledReply = 1 << 20

// writeMatchResponse writes a 200 /v1/match reply encoded by
// appendMatchResponse from a pooled buffer.
func writeMatchResponse(w http.ResponseWriter, r *matchResponse) {
	buf := replyPool.Get().(*replyBuf)
	buf.b, buf.keys = appendMatchResponse(buf.b[:0], r, buf.keys)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.b)
	clear(buf.keys)
	if cap(buf.b) <= maxPooledReply {
		replyPool.Put(buf)
	}
}

// appendMatchResponse appends r to dst byte for byte as encoding/json's
// Encoder writes it — HTML-escaped strings, counts in key order, nil slices
// and maps as null, the trailing newline — without reflection. keys is
// scratch for the sorted count keys; both grown slices are returned.
// FuzzEncodeMatchResponse holds the two encoders equal.
func appendMatchResponse(dst []byte, r *matchResponse, keys []string) ([]byte, []string) {
	dst = append(dst, `{"set":`...)
	dst = appendJSONString(dst, r.Set)
	dst = append(dst, `,"cache":`...)
	dst = appendJSONString(dst, r.Cache)
	dst = append(dst, `,"matches":`...)
	if r.Matches == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, m := range r.Matches {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"pattern":`...)
			dst = appendJSONString(dst, m.Pattern)
			dst = append(dst, `,"index":`...)
			dst = strconv.AppendInt(dst, int64(m.Index), 10)
			dst = append(dst, `,"end":`...)
			dst = strconv.AppendInt(dst, int64(m.End), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"counts":`...)
	if r.Counts == nil {
		dst = append(dst, "null"...)
	} else {
		keys = keys[:0]
		for k := range r.Counts {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(r.Counts[k]), 10)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"index_counts":`...)
	if r.IndexCounts == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, n := range r.IndexCounts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(n), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), keys
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping on: '"' and '\\' backslashed; \b \f \n \r \t by name;
// the other control bytes and '<' '>' '&' as \u00XX; each byte of invalid
// UTF-8 as \ufffd; U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
