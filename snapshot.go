package bitgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"

	"bitgen/internal/bgerr"
	"bitgen/internal/snapshot"
)

// hashField writes one length-prefixed field, so adjacent fields cannot
// run together into the same digest input.
func hashField(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// hashCompileOptions folds every compile-relevant Options field into h.
// It is the single spelling of that list: optionsHash and PatternSetKey
// both call it, so a new Options field that changes the compiled engine
// is added here once and reaches both hashes.
func hashCompileOptions(h hash.Hash, opts *Options) {
	hashField(h, fmt.Sprintf("%t|%s|%d|%d",
		opts.FoldCase, opts.Device, opts.ctas, opts.threads))
	hashField(h, fmt.Sprintf("%d|%d|%d|%d|%d",
		opts.Limits.MaxInputBytes, opts.Limits.MaxPatterns,
		opts.Limits.MaxProgramInstructions, opts.Limits.MaxWhileIterations,
		opts.Limits.MaxDeviceMemoryBytes))
}

// optionsHash fingerprints every compile-relevant option: a snapshot may
// only be loaded under Options that would have compiled the identical
// engine. Observability, the runtime-only option, is deliberately
// excluded: it reconfigures execution, not compilation, so a snapshot
// saved by a plain process loads into a traced one. Resilience
// is excluded too: an engine compiled with it saves like any other, and
// DecodeEngine refuses to load under it.
func optionsHash(opts *Options) string {
	h := sha256.New()
	hashField(h, "bitgen-snapshot-options-v4")
	hashCompileOptions(h, opts)
	return hex.EncodeToString(h.Sum(nil))
}

// SaveEngine writes a compiled engine's state as a versioned, checksummed
// snapshot: the lowered, optimized bitstream programs plus the
// compile-time metadata (duplicate-index fan-out, nullable set, streaming
// bounds) the public API derives from the pattern list. LoadEngine
// restores it without recompiling.
//
// Runtime-only state — observability hooks, scan arenas — is not persisted;
// LoadEngine rebuilds it from its own Options. Engines compiled with
// Resilience save fine: only the bitstream engine's compiled form is
// persisted, not the pinned NFA.
func SaveEngine(w io.Writer, e *Engine) error {
	if e == nil || e.inner == nil {
		return fmt.Errorf("bitgen: SaveEngine: nil engine")
	}
	data := EncodeEngine(e)
	if _, err := w.Write(data); err != nil {
		return &bgerr.SnapshotError{Reason: snapshot.ReasonStoreIO, Detail: err.Error()}
	}
	return nil
}

// EncodeEngine returns the snapshot bytes SaveEngine would write. Serving
// layers use it directly to persist through an atomic store.
func EncodeEngine(e *Engine) []byte {
	groups, shared := e.inner.Stored()
	return snapshot.Encode(&snapshot.EngineState{
		Patterns:    e.patterns,
		FoldCase:    e.foldCase,
		OptionsHash: e.optsHash,
		MaxLen:      e.maxLen,
		Nullable:    e.nullable,
		Unbounded:   e.unbounded,
		Groups:      groups,
		Shared:      shared,
		PassStats:   e.inner.PassStats,
	})
}

// LoadEngine restores an engine from a snapshot written by SaveEngine.
//
// Integrity is verified before anything is served: the format version and
// every section checksum are checked, the decoded programs are re-validated
// against IR invariants, and the snapshot's options fingerprint must equal
// the caller's — a snapshot compiled under different compile-relevant
// Options (syntax flags, device, geometry, Limits) is refused with a
// *SnapshotError (reason "options-mismatch") rather than silently served
// with drifted semantics. Every failure satisfies
// errors.Is(err, ErrSnapshot); callers fall back to Compile.
//
// Observability, the runtime-only option, need not match the saving
// process: it takes effect on the loaded engine exactly as it would on a
// fresh compile. Options with Resilience set are refused with an
// *UnsupportedError: a snapshot holds no pattern ASTs to build the NFA
// from.
func LoadEngine(r io.Reader, opts *Options) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, &bgerr.SnapshotError{Reason: snapshot.ReasonStoreIO, Detail: err.Error()}
	}
	return DecodeEngine(data, opts)
}

// DecodeEngine is LoadEngine over bytes already in memory.
func DecodeEngine(data []byte, opts *Options) (*Engine, error) {
	if opts == nil {
		opts = &Options{}
	}
	if opts.Resilience != nil {
		return nil, errPinned("loading a snapshot")
	}
	st, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	if want := optionsHash(opts); st.OptionsHash != want {
		return nil, &bgerr.SnapshotError{
			Reason: snapshot.ReasonOptions,
			Detail: fmt.Sprintf("snapshot compiled under options %.12s…, loader has %.12s…", st.OptionsHash, want),
		}
	}
	return restoreEngine(st, opts)
}

// restoreEngine rebuilds a public Engine around decoded snapshot state.
func restoreEngine(st *snapshot.EngineState, opts *Options) (*Engine, error) {
	dev, err := resolveDevice(opts)
	if err != nil {
		return nil, err
	}
	limits := opts.Limits.withDefaults(dev)
	observer := opts.Observability.observer()
	cfg := buildEngineConfig(opts, dev, limits, observer)
	inner, err := st.Restore(cfg)
	if err != nil {
		return nil, err
	}
	// The duplicate-index fan-out is derived from the persisted pattern
	// list, not re-parsed: identical inputs produce identical indexes.
	indexesOf := make(map[string][]int, len(st.Patterns))
	for i, p := range st.Patterns {
		indexesOf[p] = append(indexesOf[p], i)
	}
	e := &Engine{
		inner:     inner,
		patterns:  st.Patterns,
		indexesOf: indexesOf, nullable: st.Nullable,
		limits: limits,
		maxLen: st.MaxLen, unbounded: st.Unbounded,
		obs:      observer,
		foldCase: st.FoldCase,
		optsHash: st.OptionsHash,
	}
	e.initRankIndexes()
	return e, nil
}
