package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// encodeCases are replies whose strings and shapes cover every branch
// encoding/json takes: HTML and control bytes, invalid UTF-8, U+2028/2029,
// multi-byte runes, count_only's null matches, empty and nil lists and maps.
var encodeCases = []matchResponse{
	{Set: "k1", Cache: "miss", Matches: []jsonMatch{{Pattern: "ab", Index: 0, End: 3}}, Counts: map[string]int{"ab": 1}, IndexCounts: []int{1}},
	{Set: "k2", Cache: "hit", Counts: map[string]int{"b": 2, "a": 0, "<&>": 7}, IndexCounts: []int{0, 2, 7}},
	{Set: "", Cache: "hit", Matches: []jsonMatch{}, Counts: map[string]int{}, IndexCounts: []int{}},
	{Set: "x", Cache: "miss"},
	{Set: "\x00\x01\b\f\n\r\t\x1f\x7f\"\\/", Cache: "é€😀", Matches: []jsonMatch{{Pattern: "a b c", Index: -1, End: 1 << 40}}},
	{Set: "\xff\xfe", Cache: "\xe2\x82", Counts: map[string]int{"\xc3": 3, "é": -4, "\xed\xa0\x80": 5}},
}

func encodeStdlib(t testing.TB, r *matchResponse) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkEncode(t *testing.T, r *matchResponse) {
	t.Helper()
	want := encodeStdlib(t, r)
	got, _ := appendMatchResponse([]byte("prefix"), r, []string{"stale"})
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("appendMatchResponse:\n got %q\nwant %q", got[len("prefix"):], want)
	}
}

func TestEncodeMatchResponse(t *testing.T) {
	for i := range encodeCases {
		checkEncode(t, &encodeCases[i])
	}
}

// FuzzEncodeMatchResponse holds appendMatchResponse to encoding/json's output
// byte for byte: the strings become the set, the cache, a pattern and a
// count key; n sets the numbers and picks nil or empty lists.
func FuzzEncodeMatchResponse(f *testing.F) {
	for _, r := range encodeCases {
		f.Add(r.Set, r.Cache, strings.Join(sortedKeys(r.Counts), "|"), int64(len(r.Matches)))
	}
	f.Fuzz(func(t *testing.T, set, cache, keys string, n int64) {
		r := matchResponse{Set: set, Cache: cache}
		if n&1 == 0 {
			r.Counts = map[string]int{}
			for i, k := range strings.Split(keys, "|") {
				r.Counts[k] = int(n>>1) + i
			}
			r.IndexCounts = []int{int(n), -int(n) >> 3}
		}
		if n&2 == 0 {
			r.Matches = []jsonMatch{}
			for _, k := range strings.SplitN(keys, "|", 3) {
				r.Matches = append(r.Matches, jsonMatch{Pattern: k, Index: int(n), End: int(n >> 2)})
			}
		}
		checkEncode(t, &r)
	})
}

func sortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
