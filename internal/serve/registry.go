// Package serve is the multi-tenant matching service behind cmd/bitgend:
// an HTTP/JSON front end over the bitgen library with a compiled-engine
// LRU cache (singleflight compilation per pattern-set key),
// bounded request admission and graceful drain. It depends only on the
// standard library and the bitgen module itself.
package serve

import (
	"context"
	"runtime/debug"
	"sync"

	"bitgen"
	"bitgen/internal/bgerr"
	"bitgen/internal/obs"
)

// registry is the compiled-engine cache: pattern sets are keyed by
// bitgen.PatternSetKey, concurrent first requests for the same key share
// one compilation (singleflight), and completed engines are evicted
// least-recently-used beyond the capacity. Engines are immutable, so a
// request holding an engine that gets evicted mid-flight simply finishes
// on it; eviction only drops the cache reference.
//
// Resident-bytes accounting is measured, not proxied: each engine is
// charged its own ResidentBytes when it enters the cache and uncharged
// when it is evicted, so the gauge is at all times the sum of the cached
// engines' ResidentBytes.
type registry struct {
	cap int
	// build produces the engine for a key on miss — compile, or a
	// snapshot load/peer fetch when the server has persistence wired.
	build func(ctx context.Context, key string, patterns []string, foldCase bool) (*bitgen.Engine, error)
	reg   *obs.Registry
	// resident tracks the measured resident bytes of completed cached
	// engines, decremented on evict.
	resident *obs.Gauge

	mu      sync.Mutex
	entries map[string]*entry
	tick    int64 // recency clock: bumped on every touch
}

// entry is one cached pattern set. ready closes when compilation finishes;
// until then eng/err are unreadable. A failed compilation is removed from
// the cache before ready closes, so the next request retries.
type entry struct {
	key      string
	patterns []string
	foldCase bool
	ready    chan struct{}
	eng      *bitgen.Engine
	err      error
	// bytes is the engine's ResidentBytes, charged to the gauge while the
	// entry is cached.
	bytes   int64
	lastUse int64
}

func newRegistry(capacity int, reg *obs.Registry,
	build func(ctx context.Context, key string, patterns []string, foldCase bool) (*bitgen.Engine, error)) *registry {
	return &registry{
		cap:      capacity,
		build:    build,
		reg:      reg,
		resident: reg.Gauge(obs.MServeResidentBytes, obs.HServeResidentBytes),
		entries:  make(map[string]*entry),
	}
}

// get returns the cached entry for key, compiling the unique patterns on
// first request. hit reports whether an already-compiled (or compiling)
// entry served the lookup. The caller's context bounds only its own wait:
// a compilation started on behalf of several waiters finishes even if the
// first caller gives up.
func (r *registry) get(ctx context.Context, key string, patterns []string, foldCase bool) (e *entry, hit bool, err error) {
	r.mu.Lock()
	r.tick++
	if e := r.entries[key]; e != nil {
		e.lastUse = r.tick
		r.mu.Unlock()
		r.reg.Counter(obs.MServeCacheHits, obs.HServeCacheHits).Inc()
		if err := e.wait(ctx); err != nil {
			return nil, true, err
		}
		return e, true, nil
	}
	e = &entry{
		key:      key,
		patterns: append([]string(nil), patterns...),
		foldCase: foldCase,
		ready:    make(chan struct{}),
		lastUse:  r.tick,
	}
	r.entries[key] = e
	r.evictLocked()
	r.mu.Unlock()
	r.reg.Counter(obs.MServeCacheMisses, obs.HServeCacheMisses).Inc()

	// Build outside the lock — other keys stay servable — and detach
	// from the caller's context: waiters queued behind this singleflight
	// get the engine even if the initiating request times out first.
	// A panicking build (a decoder invariant violation on peer-fetched
	// bytes, say) must be contained here: if it escaped, e.ready would
	// never close and the entry never be removed, wedging the key — every
	// future get blocks until its context expires and the cache slot is
	// occupied for the process lifetime.
	func() {
		defer func() {
			if v := recover(); v != nil {
				e.eng, e.bytes = nil, 0
				e.err = &bgerr.InternalError{
					Op:       "build",
					Group:    -1,
					Patterns: e.patterns,
					Value:    v,
					Stack:    debug.Stack(),
				}
			}
		}()
		e.eng, e.err = r.build(context.WithoutCancel(ctx), key, e.patterns, e.foldCase)
	}()
	if e.err != nil {
		r.mu.Lock()
		if r.entries[key] == e {
			delete(r.entries, key)
		}
		r.mu.Unlock()
	} else {
		e.bytes = e.eng.ResidentBytes()
		r.resident.Add(float64(e.bytes))
	}
	close(e.ready)
	if e.err != nil {
		return nil, false, e.err
	}
	return e, false, nil
}

// wait blocks until the entry's compilation finishes or ctx expires.
func (e *entry) wait(ctx context.Context) error {
	select {
	case <-e.ready:
		return e.err
	case <-ctx.Done():
		return bgerr.Canceled(ctx.Err())
	}
}

// evictLocked drops least-recently-used completed entries beyond cap.
// In-flight compilations are never evicted (their waiters hold the entry).
func (r *registry) evictLocked() {
	for r.cap > 0 && len(r.entries) > r.cap {
		var victim *entry
		for _, e := range r.entries {
			select {
			case <-e.ready:
			default:
				continue // still compiling
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(r.entries, victim.key)
		r.resident.Add(-float64(victim.bytes))
		r.reg.Counter(obs.MServeCacheEvictions, obs.HServeCacheEvictions).Inc()
	}
}

// lookup returns the completed entry for key without compiling, for the
// /v1/snapshot?set= endpoint.
func (r *registry) lookup(key string) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[key]
	if e == nil {
		return nil
	}
	select {
	case <-e.ready:
		if e.err != nil {
			return nil
		}
		return e
	default:
		return nil
	}
}
