package kernel

import (
	"context"
	"strings"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/lower"
	"bitgen/internal/transpose"
)

// TestSessionReuseMatchesFreshSession is the reuse contract: whatever a
// session retains between runs (plan, analyses, compiled segments, stream
// and window buffers) is invisible — the Nth Run on a reused session equals
// the first Run on a fresh one in outputs and CTAStats.
func TestSessionReuseMatchesFreshSession(t *testing.T) {
	cases := []struct {
		pattern string
		inputs  []string
	}{
		{"cat|dog", []string{
			strings.Repeat("the cat sat on the dog ", 12),
			strings.Repeat("no animals in this one. ", 12),
			strings.Repeat("catdogcat ", 25),
		}},
		{"a(bc)*d", []string{
			"ad " + strings.Repeat("abcbcd ", 15),
			strings.Repeat("abcd", 40),
		}},
		{"x.?y", []string{
			strings.Repeat("xy xay xaby ", 10),
			strings.Repeat("zzz", 40) + "xy",
		}},
	}
	ctx := context.Background()
	for _, mode := range allModes {
		for _, c := range cases {
			p := lower.MustSingle("re", c.pattern)
			cfg := Config{Grid: tinyGrid, Mode: mode}
			a := &arena.Arena{}
			reused, err := NewSession(p, cfg, a)
			if err != nil {
				t.Fatal(err)
			}
			for _, input := range c.inputs {
				basis := transpose.Transpose([]byte(input))
				fresh, err := NewSession(p, cfg, a)
				if err != nil {
					t.Fatal(err)
				}
				want, wantStats, err := fresh.Run(ctx, basis)
				if err != nil {
					t.Fatalf("%v fresh session %q: %v", mode, c.pattern, err)
				}
				outs, stats, err := reused.Run(ctx, basis)
				if err != nil {
					t.Fatalf("%v reused session %q: %v", mode, c.pattern, err)
				}
				for i, o := range p.Outputs {
					if !outs[i].Equal(want[i]) {
						t.Fatalf("%v %q input %q: output %s diverges from a fresh session",
							mode, c.pattern, input, o.Name)
					}
				}
				if stats != wantStats {
					t.Errorf("%v %q: reused session stats %+v != fresh session stats %+v",
						mode, c.pattern, stats, wantStats)
				}
				fresh.Close()
			}
			reused.Close()
			if err := a.CheckBalanced(); err != nil {
				t.Fatalf("%v %q: %v", mode, c.pattern, err)
			}
		}
	}
}

// TestSessionFallbackPersistsExact drives a carry chain past the overlap
// cap: the session takes the materialization fallback, stays exact, and
// keeps the fallback (and exactness) on subsequent runs.
func TestSessionFallbackPersistsExact(t *testing.T) {
	p := lower.MustSingle("re", "ab*c")
	cfg := Config{Grid: tinyGrid, Mode: ModeDTM}
	sess, err := NewSession(p, cfg, &arena.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	inputs := []string{
		"a" + strings.Repeat("b", 2000) + "c",
		"abc abbbc " + strings.Repeat("x", 300),
		"a" + strings.Repeat("b", 1500) + "c",
	}
	for i, input := range inputs {
		basis := transpose.Transpose([]byte(input))
		want := interpRef(t, p, basis)["re"]
		outs, _, err := sess.Run(context.Background(), basis)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !outs[0].Equal(want) {
			t.Fatalf("run %d: session output diverges after fallback", i)
		}
	}
	if sess.Fallbacks() == 0 {
		t.Fatal("expected a materialized fallback segment")
	}
}

// TestSessionSteadyStateZeroAllocs is the arena contract: once warmed, a
// session run over a same-sized chunk allocates nothing.
func TestSessionSteadyStateZeroAllocs(t *testing.T) {
	p := lower.MustSingle("re", "cat|dog")
	cfg := Config{Grid: tinyGrid, Mode: ModeDTM, HonorGuards: true}
	sess, err := NewSession(p, cfg, &arena.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	input := []byte(strings.Repeat("the cat sat on the dog ", 40))
	basis := transpose.Transpose(input)
	ctx := context.Background()
	// Warm every retained buffer.
	if _, _, err := sess.Run(ctx, basis); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := sess.Run(ctx, basis); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state session Run allocates %v per run, want 0", allocs)
	}
}
