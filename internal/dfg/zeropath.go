package dfg

import (
	"slices"
	"sort"

	"bitgen/internal/ir"
)

// ZeroPreservingUse reports whether expression e yields all-zero whenever
// variable v (one of its operands) is all-zero. AND (either side), the
// positive side of ANDNOT, SHIFT and COPY preserve zero; OR, XOR and NOT do
// not (Section 6).
func ZeroPreservingUse(e ir.Expr, v ir.VarID) bool {
	switch x := e.(type) {
	case ir.Copy:
		return x.Src == v
	case ir.Shift:
		return x.Src == v
	case ir.StarThru:
		// No markers in, no matches out (the class operand does not
		// preserve zero: MatchStar(M, 0) = M).
		return x.M == v
	case ir.Bin:
		switch x.Op {
		case ir.OpAnd:
			return x.X == v || x.Y == v
		case ir.OpAndNot:
			return x.X == v
		}
	}
	return false
}

// ZeroPath is a chain of assignments within one straight-line run such that
// if Cond is all-zero, every assignment on the chain produces all-zero.
type ZeroPath struct {
	// Cond is the variable whose zeroness makes the chain dead.
	Cond ir.VarID
	// Head is the run index of the statement defining Cond, or -1 when
	// Cond is defined before the run (e.g. a character-class stream).
	Head int
	// Stmts are the run indices of the on-path assignments, strictly
	// increasing, all after Head.
	Stmts []int
}

// PathFinder is ZeroPaths' working memory — the occurrence index, the
// on-path marks, the chains and the path list — kept from run to run so a
// pass that finds the paths of every run of every group program sizes it
// once. The zero value is ready to use.
type PathFinder struct {
	ix     occIndex
	onPath []bool
	chains []int
	paths  []ZeroPath
}

// occIndex is a CSR index over one run: for each variable, the ordered run
// positions of the statements that read or define it. Chain-following
// steps through a variable's occurrence list directly instead of scanning
// the whole run per head, which kept ZeroPaths quadratic in run length —
// ruinous on ClamAV-class group programs of 10^5 statements.
type occIndex struct {
	off  []int32
	fill []int32
	dat  []int32
}

// zeroed returns s resized to n entries, all zero, reallocated only to grow.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// build indexes run over numVars variables, reusing ix's tables.
func (ix *occIndex) build(run []*ir.Assign, numVars int) {
	ix.off = zeroed(ix.off, numVars+1)
	ix.fill = zeroed(ix.fill, numVars) // each variable's count first, then its fill
	var buf [2]ir.VarID
	for _, a := range run {
		for _, v := range ir.OperandsInto(a.Expr, &buf) {
			ix.fill[v]++
		}
		ix.fill[a.Dst]++
	}
	for i := 0; i < numVars; i++ {
		ix.off[i+1] = ix.off[i] + ix.fill[i]
	}
	clear(ix.fill)
	ix.dat = zeroed(ix.dat, int(ix.off[numVars]))
	add := func(v ir.VarID, j int32) {
		// One entry per (statement, variable) even when the statement
		// mentions the variable twice (AND(v,v), or dst == operand): the
		// chain walk must visit each statement once, like a linear scan.
		if ix.fill[v] > 0 && ix.dat[ix.off[v]+ix.fill[v]-1] == j {
			return
		}
		ix.dat[ix.off[v]+ix.fill[v]] = j
		ix.fill[v]++
	}
	for j, a := range run {
		for _, v := range ir.OperandsInto(a.Expr, &buf) {
			add(v, int32(j))
		}
		add(a.Dst, int32(j))
	}
}

// occurrences returns the ordered run positions mentioning v.
func (ix *occIndex) occurrences(v ir.VarID) []int32 {
	return ix.dat[ix.off[v] : ix.off[v]+ix.fill[v]]
}

// ZeroPaths discovers maximal zero paths in a straight-line run of
// assignments. Paths shorter than two on-path statements are discarded:
// guarding a single instruction cannot pay for the branch. The chains are
// built in one backing array (it grows only if the kept paths share
// statements); each path's Stmts is a capacity-clipped window. The paths are
// f's: they stay valid until its next ZeroPaths.
func (f *PathFinder) ZeroPaths(run []*ir.Assign, numVars int) []ZeroPath {
	f.ix.build(run, numVars)
	f.onPath = zeroed(f.onPath, len(run))
	paths := f.paths[:0]
	buf := f.chains[:0]
	for head := 0; head < len(run); head++ {
		if f.onPath[head] {
			continue // already the interior of a longer path
		}
		start := len(buf)
		buf = followChain(run, head, &f.ix, buf)
		chain := buf[start:len(buf):len(buf)]
		if len(chain) < 2 {
			buf = buf[:start]
			continue
		}
		for _, idx := range chain {
			f.onPath[idx] = true
		}
		paths = append(paths, ZeroPath{Cond: run[head].Dst, Head: head, Stmts: chain})
	}
	f.chains = buf
	f.paths = paths
	return paths
}

// followChain greedily extends a zero path from the definition at run
// index head, appending it to chain: at each step it takes the next
// statement that consumes the current value zero-preservingly (and whose
// result is therefore also guaranteed zero), honoring redefinitions of the
// tracked variable. Only statements mentioning the tracked variable are
// visited, via the occurrence index.
func followChain(run []*ir.Assign, head int, ix *occIndex, chain []int) []int {
	cur := run[head].Dst
	j := head
	for {
		list := ix.occurrences(cur)
		k := sort.Search(len(list), func(i int) bool { return int(list[i]) > j })
		advanced := false
		for ; k < len(list); k++ {
			q := int(list[k])
			a := run[q]
			if ZeroPreservingUse(a.Expr, cur) {
				chain = append(chain, q)
				cur = a.Dst
				j = q
				advanced = true
				break
			}
			if a.Dst == cur {
				return chain // tracked value redefined by an unrelated computation
			}
		}
		if !advanced {
			return chain
		}
	}
}
