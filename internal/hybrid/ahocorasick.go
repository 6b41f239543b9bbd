// Package hybrid implements the Hyperscan-style CPU baseline: regex
// decomposition into required literal factors, an Aho-Corasick multi-string
// prefilter, NFA-based confirmation around candidate sites, and a
// multi-goroutine mode that parallelizes across regexes (the paper's HS-1T
// and HS-MT configurations). Unlike the GPU engines, this baseline is
// actually *executed* and wall-clock timed: it is a real multi-pattern
// matcher.
package hybrid

// acNode is one state of the Aho-Corasick automaton.
type acNode struct {
	next [256]int32 // goto function after failure resolution (dense)
	out  []int32    // pattern ids ending here
}

// AhoCorasick is a compiled multi-string matcher.
type AhoCorasick struct {
	nodes []acNode
}

// NewAhoCorasick builds the automaton for the given byte patterns.
// Empty patterns are ignored.
func NewAhoCorasick(patterns [][]byte) *AhoCorasick {
	ac := &AhoCorasick{}
	ac.nodes = append(ac.nodes, acNode{})
	// Phase 1: trie.
	tri := []map[byte]int32{make(map[byte]int32)}
	for id, pat := range patterns {
		if len(pat) == 0 {
			continue
		}
		cur := int32(0)
		for _, c := range pat {
			nxt, ok := tri[cur][c]
			if !ok {
				nxt = int32(len(ac.nodes))
				ac.nodes = append(ac.nodes, acNode{})
				tri = append(tri, make(map[byte]int32))
				tri[cur][c] = nxt
			}
			cur = nxt
		}
		ac.nodes[cur].out = append(ac.nodes[cur].out, int32(id))
	}
	// Phase 2: BFS failure links, resolving the dense next function.
	fail := make([]int32, len(ac.nodes))
	queue := make([]int32, 0, len(ac.nodes))
	for c := 0; c < 256; c++ {
		if nxt, ok := tri[0][byte(c)]; ok {
			ac.nodes[0].next[c] = nxt
			queue = append(queue, nxt)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		f := fail[u]
		ac.nodes[u].out = append(ac.nodes[u].out, ac.nodes[f].out...)
		for c := 0; c < 256; c++ {
			if nxt, ok := tri[u][byte(c)]; ok {
				ac.nodes[u].next[c] = nxt
				fail[nxt] = ac.nodes[f].next[c]
				queue = append(queue, nxt)
			} else {
				ac.nodes[u].next[c] = ac.nodes[f].next[c]
			}
		}
	}
	return ac
}

// Hit is one literal match: pattern `ID` ends at input position `End`.
type Hit struct {
	ID  int32
	End int32
}

// Scan reports every occurrence of every pattern in input.
func (ac *AhoCorasick) Scan(input []byte, visit func(Hit)) {
	state := int32(0)
	for i, c := range input {
		state = ac.nodes[state].next[c]
		for _, id := range ac.nodes[state].out {
			visit(Hit{ID: id, End: int32(i)})
		}
	}
}
