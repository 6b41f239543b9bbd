package rx_test

import (
	"reflect"
	"testing"

	"bitgen/internal/lower"
	"bitgen/internal/nfa"
	"bitgen/internal/rx"
)

// TestQuantifierSpellingsAgree holds '*', '+' and '?' to the bounds they
// abbreviate: each pair parses to one AST, renders one way, lowers to one
// program and builds one Glushkov automaton.
func TestQuantifierSpellingsAgree(t *testing.T) {
	for _, sub := range []string{"[a-c]", "(ab)"} {
		for _, pair := range [][2]string{{"*", "{0,}"}, {"+", "{1,}"}, {"?", "{0,1}"}} {
			short, long := sub+pair[0], sub+pair[1]
			a, b := rx.MustParse(short), rx.MustParse(long)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%q parses to %#v, %q to %#v", short, a, long, b)
			}
			if a.String() != b.String() {
				t.Errorf("%q renders %q, %q renders %q", short, a, long, b)
			}
			pa, pb := lower.MustSingle("r", short), lower.MustSingle("r", long)
			if pa.String() != pb.String() {
				t.Errorf("%q and %q lower differently:\n%s\n%s", short, long, pa, pb)
			}
			na, err := nfa.Build([]string{"r"}, []rx.Node{a})
			if err != nil {
				t.Fatal(err)
			}
			nb, err := nfa.Build([]string{"r"}, []rx.Node{b})
			if err != nil {
				t.Fatal(err)
			}
			if na.NumStates() != nb.NumStates() {
				t.Errorf("%q builds %d positions, %q %d", short, na.NumStates(), long, nb.NumStates())
			}
		}
	}
}
