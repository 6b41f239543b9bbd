package snapshot

import (
	"bitgen/internal/engine"
	"bitgen/internal/ir"
)

// Section names of the v2 format. Decode requires exactly these four, in
// this order; Meta comes first so PeekMeta can stop after one section.
const (
	sectionMeta   = "meta"
	sectionPasses = "passes"
	sectionGroups = "groups"
	sectionShared = "shared"
)

// EngineState is the serializable compiled state of a bitgen.Engine: the
// lowered, optimized bitstream programs plus the compile-time metadata the
// root API derives from the pattern list (duplicate indexes, nullable set,
// streaming bounds). Everything runtime-only — observers, arenas — is
// reconstructed at load, not persisted.
type EngineState struct {
	// Patterns is the caller's pattern list verbatim, duplicates and order
	// preserved, so a loaded engine fans match indexes out identically.
	Patterns []string
	// FoldCase records Options.FoldCase at compile time.
	FoldCase bool
	// OptionsHash fingerprints every compile-relevant option (see the root
	// package's optionsHash); loads under a different configuration are
	// refused with an options-mismatch error.
	OptionsHash string
	// MaxLen is the compile-time cached max-match-length bound used by
	// streaming scans; Nullable and Unbounded are the pattern subsets with
	// special streaming/EOF semantics.
	MaxLen    int
	Nullable  []string
	Unbounded []string
	// Groups are the per-CTA compiled programs. v2 persists each program as
	// its packed byte blob — the same content unit the engine keeps resident
	// and the serve layer interns — so snapshots of compressed engines
	// round-trip byte-identically. Decode leaves Outputs empty; Restore fills
	// them from the validated programs.
	Groups []engine.Group
	// Shared is the engine-wide character-class program whose outputs bind
	// the extended basis bits (MatchBasis ≥ 8) that group programs may read.
	// Nil when the engine has no cross-group shared classes.
	Shared *ir.Program
	// PassStats aggregates what the optimization passes did at compile.
	PassStats engine.PassStats
}

// Meta is the cheap-to-decode identity of a snapshot, used by the serve
// layer's warm start to rebuild the cache key before paying a full decode.
type Meta struct {
	Patterns    []string
	FoldCase    bool
	OptionsHash string
}

// Encode serializes the state into the framed, checksummed container.
func Encode(st *EngineState) []byte {
	var meta enc
	meta.strs(st.Patterns)
	meta.boolean(st.FoldCase)
	meta.str(st.OptionsHash)
	meta.varint(int64(st.MaxLen))
	meta.strs(st.Nullable)
	meta.strs(st.Unbounded)

	var passes enc
	passes.varint(int64(st.PassStats.Rewrites))
	passes.varint(int64(st.PassStats.MergedGroups))
	passes.varint(int64(st.PassStats.DedupedCopies))
	passes.varint(int64(st.PassStats.ZeroPaths))
	passes.varint(int64(st.PassStats.GuardsInserted))

	var groups enc
	groups.count(len(st.Groups))
	for i := range st.Groups {
		g := &st.Groups[i]
		groups.strs(g.Names)
		groups.varint(int64(g.Chars))
		// The stored packed bytes go out verbatim, so re-encoding a decoded
		// snapshot reproduces the group section byte for byte.
		groups.blob(g.Packed)
	}

	var shared enc
	if st.Shared == nil {
		shared.boolean(false)
	} else {
		shared.boolean(true)
		shared.blob(ir.EncodeProgram(st.Shared))
	}

	return container([]section{
		{name: sectionMeta, payload: meta.b},
		{name: sectionPasses, payload: passes.b},
		{name: sectionGroups, payload: groups.b},
		{name: sectionShared, payload: shared.b},
	})
}

// Decode parses a snapshot: framing and CRCs first (splitContainer), then
// the structure of every section. The group programs stay packed bytes — they
// are decoded and validated once, by Restore, and a state is safe to execute
// only through it. Any failure is a typed *bgerr.SnapshotError.
func Decode(data []byte) (*EngineState, error) {
	sections, err := splitContainer(data)
	if err != nil {
		return nil, err
	}
	if len(sections) != 4 || sections[0].name != sectionMeta ||
		sections[1].name != sectionPasses || sections[2].name != sectionGroups ||
		sections[3].name != sectionShared {
		return nil, corrupt("want sections [%s %s %s %s], got %d sections",
			sectionMeta, sectionPasses, sectionGroups, sectionShared, len(sections))
	}
	st := &EngineState{}

	md := &dec{b: sections[0].payload, section: sectionMeta}
	st.Patterns = md.strs("pattern")
	st.FoldCase = md.boolean("fold-case")
	st.OptionsHash = md.str("options-hash")
	st.MaxLen = int(md.varint("max-len"))
	st.Nullable = md.strs("nullable pattern")
	st.Unbounded = md.strs("unbounded pattern")
	if err := md.done(); err != nil {
		return nil, err
	}
	if len(st.Patterns) == 0 {
		return nil, corrupt("section %q: empty pattern list", sectionMeta)
	}

	pd := &dec{b: sections[1].payload, section: sectionPasses}
	st.PassStats.Rewrites = int(pd.varint("rewrites"))
	st.PassStats.MergedGroups = int(pd.varint("merged-groups"))
	st.PassStats.DedupedCopies = int(pd.varint("deduped-copies"))
	st.PassStats.ZeroPaths = int(pd.varint("zero-paths"))
	st.PassStats.GuardsInserted = int(pd.varint("guards-inserted"))
	if err := pd.done(); err != nil {
		return nil, err
	}

	gd := &dec{b: sections[2].payload, section: sectionGroups}
	n := gd.count("group", 4)
	st.Groups = make([]engine.Group, 0, n)
	for i := 0; i < n && gd.err == nil; i++ {
		var g engine.Group
		g.Names = gd.strs("group name")
		g.Chars = int(gd.varint("group chars"))
		g.Packed = gd.blob("group program")
		st.Groups = append(st.Groups, g)
	}
	if err := gd.done(); err != nil {
		return nil, err
	}
	if len(st.Groups) == 0 {
		return nil, corrupt("section %q: no groups", sectionGroups)
	}

	sd := &dec{b: sections[3].payload, section: sectionShared}
	if sd.boolean("shared-program flag") {
		blob := sd.blob("shared program")
		if sd.err == nil {
			p, err := ir.DecodeProgram(blob)
			if err != nil {
				return nil, corrupt("shared program undecodable: %v", err)
			}
			st.Shared = p
		}
	}
	if err := sd.done(); err != nil {
		return nil, err
	}
	return st, nil
}

// Restore builds the engine the state describes. engine.Restore is the trust
// boundary — every program decoded and validated, each group's extended-basis
// bits checked against the shared program's outputs — and its refusal of a
// checksummed snapshot is reported as corruption.
func (st *EngineState) Restore(cfg engine.Config) (*engine.Engine, error) {
	e, err := engine.Restore(cfg, st.Groups, st.Shared, st.PassStats)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	return e, nil
}

// PeekMeta decodes only the header and the (CRC-verified) first section —
// enough to recompute a cache key without decoding programs. The rest of
// the file is not verified; callers that intend to serve the snapshot must
// still Decode (or Verify) it.
func PeekMeta(data []byte) (*Meta, error) {
	first, err := splitFirstSection(data)
	if err != nil {
		return nil, err
	}
	if first.name != sectionMeta {
		return nil, corrupt("first section is %q, want %q", first.name, sectionMeta)
	}
	md := &dec{b: first.payload, section: sectionMeta}
	m := &Meta{}
	m.Patterns = md.strs("pattern")
	m.FoldCase = md.boolean("fold-case")
	m.OptionsHash = md.str("options-hash")
	if md.err != nil {
		return nil, md.err
	}
	return m, nil
}
