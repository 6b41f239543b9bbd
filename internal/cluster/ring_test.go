package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x-pattern-set-key-%d", i*2654435761, i)
	}
	return keys
}

// TestRingDeterministicAcrossPeerOrder proves every replica builds the
// identical ring regardless of the order its -peers flag lists them.
func TestRingDeterministicAcrossPeerOrder(t *testing.T) {
	a, err := NewRing([]string{"http://n1:1", "http://n2:1", "http://n3:1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"http://n3:1", "http://n1:1", "http://n2:1", "http://n2:1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(500) {
		ao, as := a.OwnerSuccessor(k)
		bo, bs := b.OwnerSuccessor(k)
		if ao != bo || as != bs {
			t.Fatalf("key %q: ring views disagree (%s/%s vs %s/%s)", k, ao, as, bo, bs)
		}
		if ao == as {
			t.Fatalf("key %q: successor equals owner", k)
		}
	}
}

// TestRingBalance checks the vnode spread: no node owns more than ~2x its
// fair share of keys.
func TestRingBalance(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	keys := testKeys(3000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	fair := len(keys) / len(nodes)
	for n, c := range counts {
		if c > 2*fair || c < fair/2 {
			t.Errorf("node %s owns %d keys, fair share %d (spread too skewed)", n, c, fair)
		}
	}
}

// TestRingRemovalMovesBoundedKeys: removing one of N nodes must move only
// the dead node's keys — consistent hashing's defining property.
func TestRingRemovalMovesBoundedKeys(t *testing.T) {
	full, err := NewRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"http://a:1", "http://b:1"})
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(2000)
	moved := 0
	for _, k := range keys {
		before := full.Owner(k)
		after := reduced.Owner(k)
		if before != after {
			moved++
			if before != "http://c:1" {
				t.Fatalf("key %q moved from surviving node %s to %s", k, before, after)
			}
		}
	}
	// Only c's keys move: roughly a third, never more than half.
	if moved == 0 || moved > len(keys)/2 {
		t.Errorf("moved = %d of %d keys, want ~1/3", moved, len(keys))
	}
}

// TestRingSuccessorIsWarmStandby: the successor must be a distinct node,
// and on a one-node ring there is none.
func TestRingSuccessorIsWarmStandby(t *testing.T) {
	solo, err := NewRing([]string{"http://only:1"})
	if err != nil {
		t.Fatal(err)
	}
	if o, s := solo.OwnerSuccessor("k"); o != "http://only:1" || s != "" {
		t.Fatalf("one-node ring: owner %q successor %q", o, s)
	}
	r, err := NewRing([]string{"http://a:1", "http://b:1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(200) {
		o, s := r.OwnerSuccessor(k)
		if o == s || s == "" {
			t.Fatalf("key %q: owner %q successor %q", k, o, s)
		}
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Error("empty node name accepted")
	}
}
