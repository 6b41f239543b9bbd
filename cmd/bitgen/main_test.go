package main

import (
	"reflect"
	"testing"

	"bitgen"
)

// TestMatchLinesPlacesEveryMatch maps match ends to lines, the nullable
// end-of-input match (End == len(input)) included: past a final newline it
// belongs to the last line, and an empty input has no line to put it on.
func TestMatchLinesPlacesEveryMatch(t *testing.T) {
	eng := bitgen.MustCompile([]string{"x*", "yz"}, nil)
	for _, tc := range []struct {
		input string
		want  []lineHit
	}{
		{"abc\nxyz\n", []lineHit{{0, "abc", []string{"x*"}}, {1, "xyz", []string{"x*", "yz"}}}},
		{"abc\nxyz", []lineHit{{0, "abc", []string{"x*"}}, {1, "xyz", []string{"x*", "yz"}}}},
		{"\n\nyz\r\n", []lineHit{{0, "", []string{"x*"}}, {1, "", []string{"x*"}}, {2, "yz", []string{"x*", "yz"}}}},
		{"", []lineHit{}},
	} {
		res, err := eng.Run([]byte(tc.input))
		if err != nil {
			t.Fatal(err)
		}
		if last := res.Matches[len(res.Matches)-1]; last.End != len(tc.input) {
			t.Fatalf("%q: last match ends at %d, want the end-of-input match at %d", tc.input, last.End, len(tc.input))
		}
		if got := matchLines([]byte(tc.input), res.Matches); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: matchLines = %v, want %v", tc.input, got, tc.want)
		}
	}
}
