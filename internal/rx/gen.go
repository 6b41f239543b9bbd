package rx

import (
	"math/rand"

	"bitgen/internal/charclass"
)

// GenOptions configure the random regex generator used by property tests
// and by the synthetic workload builders.
type GenOptions struct {
	// MaxDepth bounds operator nesting.
	MaxDepth int
	// Alphabet is the set of bytes literals are drawn from. Empty means
	// lowercase ASCII letters.
	Alphabet []byte
	// StarProb in [0,1] scales how often unbounded repetition appears.
	StarProb float64
	// MaxRepeat bounds the {n,m} counters generated.
	MaxRepeat int
}

func (o *GenOptions) fill() {
	if o.MaxDepth == 0 {
		o.MaxDepth = 4
	}
	if len(o.Alphabet) == 0 {
		o.Alphabet = []byte("abcdefghij")
	}
	if o.StarProb == 0 {
		o.StarProb = 0.25
	}
	if o.MaxRepeat == 0 {
		o.MaxRepeat = 4
	}
}

// Generate returns a random AST drawn from the paper's grammar.
func Generate(rng *rand.Rand, opts GenOptions) Node {
	opts.fill()
	return genNode(rng, &opts, opts.MaxDepth)
}

func genNode(rng *rand.Rand, o *GenOptions, depth int) Node {
	if depth <= 0 {
		return genCC(rng, o)
	}
	switch r := rng.Float64(); {
	case r < 0.35:
		// Concatenation of 2-4 factors.
		k := 2 + rng.Intn(3)
		parts := make([]Node, k)
		for i := range parts {
			parts[i] = genNode(rng, o, depth-1)
		}
		return Concat{parts}
	case r < 0.55:
		k := 2 + rng.Intn(2)
		alts := make([]Node, k)
		for i := range alts {
			alts[i] = genNode(rng, o, depth-1)
		}
		return Alt{alts}
	case r < 0.55+o.StarProb*0.45:
		sub := genNonEmpty(rng, o, depth-1)
		switch rng.Intn(3) {
		case 0:
			return Repeat{Sub: sub, Min: 0, Max: Unbounded}
		case 1:
			return Repeat{Sub: sub, Min: 1, Max: Unbounded}
		default:
			return Repeat{Sub: sub, Min: 0, Max: 1}
		}
	case r < 0.9:
		sub := genNonEmpty(rng, o, depth-1)
		minR := rng.Intn(o.MaxRepeat)
		maxR := minR + rng.Intn(o.MaxRepeat-minR+1)
		if rng.Intn(6) == 0 {
			maxR = Unbounded
		}
		if minR == 0 && maxR == 0 {
			minR, maxR = 1, 1
		}
		return Repeat{Sub: sub, Min: minR, Max: maxR}
	default:
		return genCC(rng, o)
	}
}

// genNonEmpty generates a node that cannot match the empty string, keeping
// nested unbounded repetition well-behaved (e.g. avoiding (a?)* shapes that
// are valid but explode the all-match fixpoint in oracles).
func genNonEmpty(rng *rand.Rand, o *GenOptions, depth int) Node {
	for tries := 0; tries < 8; tries++ {
		n := genNode(rng, o, depth)
		if !MatchesEmpty(n) {
			return n
		}
	}
	return genCC(rng, o)
}

func genCC(rng *rand.Rand, o *GenOptions) Node {
	switch rng.Intn(10) {
	case 0:
		// Small random class from the alphabet.
		var cl charclass.Class
		k := 1 + rng.Intn(3)
		for i := 0; i < k; i++ {
			cl.Add(o.Alphabet[rng.Intn(len(o.Alphabet))])
		}
		return CC{cl}
	case 1:
		// Range over the alphabet (assumes sorted-ish alphabets are fine;
		// ranges use byte order regardless).
		a := o.Alphabet[rng.Intn(len(o.Alphabet))]
		b := o.Alphabet[rng.Intn(len(o.Alphabet))]
		if a > b {
			a, b = b, a
		}
		return CC{charclass.Range(a, b)}
	default:
		return CC{charclass.Single(o.Alphabet[rng.Intn(len(o.Alphabet))])}
	}
}

// GenerateLiteral returns a random exact-string pattern of the given length.
func GenerateLiteral(rng *rand.Rand, o GenOptions, length int) Node {
	o.fill()
	buf := make([]byte, length)
	for i := range buf {
		buf[i] = o.Alphabet[rng.Intn(len(o.Alphabet))]
	}
	return Literal(string(buf))
}
