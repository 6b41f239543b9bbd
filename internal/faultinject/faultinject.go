// Package faultinject provides deterministic, seeded fault hooks for the
// hardened execution layer. Production code consults an optional *Injector
// at named points (launch, kernel entry, tile commit, overlap fixpoint,
// global while loops); tests arm specific points to prove that every error
// path surfaces the right typed error, never deadlocks the engine's
// semaphore/WaitGroup, and leaves the Engine usable afterwards.
//
// Determinism: a decision at (point, hit-count) depends only on the
// injector's seed, so a failing schedule reproduces exactly from the seed
// alone — no time, no global rand. All methods are safe for concurrent use
// (the engine runs CTA groups on parallel goroutines) and safe on a nil
// receiver, so hot paths can consult the injector unconditionally.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
)

// Point names an injection site.
type Point string

const (
	// LaunchFail fails a CTA group launch before any execution
	// (checked via gpusim.CheckLaunch at the engine's launch boundary).
	LaunchFail Point = "launch-fail"
	// KernelPanic panics inside kernel execution — exercises the
	// engine's panic containment.
	KernelPanic Point = "kernel-panic"
	// TileCorrupt flips bits in a shared-memory tile (a window register)
	// just before commit — exercises containment of silent data faults.
	TileCorrupt Point = "tile-corrupt"
	// ForceFallback forces a Section 8.2 overlap overflow, pushing the
	// offending loop or carry onto the materialized fallback path. Only a
	// window of a segment that has a loop or a carry consults it.
	ForceFallback Point = "force-fallback"
	// WhileCap trips the global while-iteration cap regardless of the
	// configured bound.
	WhileCap Point = "while-cap"

	// Network-level points, consulted by the cluster transport
	// (internal/cluster). Each is usually scoped to one peer with For:
	// in.ArmNth(faultinject.PeerRefuse.For("127.0.0.1:9001"), 1).
	// The unscoped point applies to every peer.

	// PeerRefuse fails a peer dial/request before any bytes are exchanged
	// — the connection-refused shape of a crashed replica.
	PeerRefuse Point = "peer-refuse"
	// PeerDrop cuts a peer response mid-stream after a deterministic
	// number of body bytes — a connection reset during an NDJSON relay.
	PeerDrop Point = "peer-drop"
	// PeerPartition models a network partition: every request to the
	// partitioned peer fails as if unroutable. Distinct from PeerRefuse
	// so tests can arm a persistent partition (Repeat) alongside
	// one-shot refusals.
	PeerPartition Point = "peer-partition"

	// Persistence points, consulted by the engine-snapshot store
	// (internal/snapshot). Each can be scoped to one pattern-set key
	// with For; the unscoped point applies to every snapshot.

	// SnapTornWrite truncates a snapshot mid-write before it reaches its
	// final path — the on-disk shape of a crash during persistence.
	SnapTornWrite Point = "snap-torn-write"
	// SnapBitFlip flips one byte of a snapshot as it is written — silent
	// media corruption that only checksums can catch.
	SnapBitFlip Point = "snap-bit-flip"
	// SnapShortRead returns only a prefix of the snapshot at load — an
	// interrupted read or a concurrently truncated file.
	SnapShortRead Point = "snap-short-read"
	// SnapStaleVersion stamps a snapshot with a future format version at
	// write — the shape of a rollback serving snapshots written by a
	// newer build.
	SnapStaleVersion Point = "snap-stale-version"
)

// For scopes a point to one target (a peer address): the returned point is
// independent of the unscoped one — arm either or both. The cluster
// transport consults both the scoped and unscoped variants.
func (p Point) For(target string) Point {
	return p + ":" + Point(target)
}

// ErrInjected is the identity of every injected fault: tests and callers
// classify with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faultinject: injected fault")

// FaultError is the concrete error returned for a fired point.
type FaultError struct {
	Point Point
	// Hit is the 1-based occurrence count at which the point fired.
	Hit uint64
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("faultinject: %s (hit %d)", e.Point, e.Hit)
}

// Is makes errors.Is(err, ErrInjected) true for every *FaultError.
func (e *FaultError) Is(target error) bool { return target == ErrInjected }

// Spec arms one point. Exactly one of Nth or Prob selects the firing rule.
type Spec struct {
	// Nth fires on the Nth hit (1-based). With Repeat, every hit from the
	// Nth on fires.
	Nth uint64
	// Prob fires each hit independently with this probability, decided by
	// a hash of (seed, point, hit) — deterministic for a fixed seed.
	Prob float64
	// Repeat extends Nth-mode to all hits >= Nth.
	Repeat bool
}

// Injector decides, deterministically from its seed, which armed points
// fire at which hits. The zero of *Injector (nil) never fires.
type Injector struct {
	seed uint64

	mu    sync.Mutex
	specs map[Point]Spec
	hits  map[Point]uint64
	fired map[Point]uint64
}

// New returns an injector with the given seed and nothing armed.
func New(seed uint64) *Injector {
	return &Injector{
		seed:  seed,
		specs: make(map[Point]Spec),
		hits:  make(map[Point]uint64),
		fired: make(map[Point]uint64),
	}
}

// Arm installs a firing rule for a point and returns the injector for
// chaining.
func (in *Injector) Arm(p Point, s Spec) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.specs[p] = s
	return in
}

// ArmNth arms a point to fire exactly once, on its nth hit (1-based).
func (in *Injector) ArmNth(p Point, n uint64) *Injector {
	return in.Arm(p, Spec{Nth: n})
}

// Disarm removes a point's firing rule (hit counters are kept). Recovery
// tests use it to model an environmental fault that clears: a persistently
// failing backend stops faulting and the circuit breaker's next probe
// succeeds.
func (in *Injector) Disarm(p Point) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.specs, p)
	return in
}

// Fire records one hit of the point and reports whether it fires. Safe on
// a nil receiver (never fires), so call sites need no guard.
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	spec, armed := in.specs[p]
	in.hits[p]++
	if !armed {
		return false
	}
	hit := in.hits[p]
	var fires bool
	switch {
	case spec.Nth > 0 && spec.Repeat:
		fires = hit >= spec.Nth
	case spec.Nth > 0:
		fires = hit == spec.Nth
	case spec.Prob > 0:
		fires = float64(mix(in.seed, p, hit))/float64(^uint64(0)) < spec.Prob
	}
	if fires {
		in.fired[p]++
	}
	return fires
}

// Err is Fire returning a typed *FaultError when the point fires, nil
// otherwise. Safe on a nil receiver.
func (in *Injector) Err(p Point) error {
	if in == nil {
		return nil
	}
	if !in.Fire(p) {
		return nil
	}
	in.mu.Lock()
	hit := in.hits[p]
	in.mu.Unlock()
	return &FaultError{Point: p, Hit: hit}
}

// Hits returns how many times the point has been consulted.
func (in *Injector) Hits(p Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[p]
}

// Fired returns how many times the point has fired.
func (in *Injector) Fired(p Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p]
}

// Corrupt XORs a deterministic bit pattern (derived from seed, point and
// hit count) into the words — the payload of a TileCorrupt fire.
func (in *Injector) Corrupt(p Point, words []uint64) {
	if in == nil {
		return
	}
	in.mu.Lock()
	hit := in.hits[p]
	seed := in.seed
	in.mu.Unlock()
	for i := range words {
		words[i] ^= mix(seed, p, hit+uint64(i))
	}
}

// mix is splitmix64 over the seed, an FNV hash of the point name, and the
// hit counter: a cheap, high-quality deterministic decision function.
func mix(seed uint64, p Point, hit uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	z := seed ^ h ^ (hit * 0x9e3779b97f4a7c15)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
