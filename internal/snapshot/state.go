package snapshot

import (
	"encoding/binary"

	"bitgen/internal/charclass"
	"bitgen/internal/engine"
)

// classBytes is the stored size of one shared class: its membership bytes.
const classBytes = 32

// Section names of the v3 format. Decode requires exactly these four, in
// this order.
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
	// Groups are the per-CTA compiled programs, each persisted as its packed
	// byte blob — the same bytes the engine keeps resident — so
	// snapshots of compressed engines round-trip byte-identically. Decode leaves Outputs empty; Restore fills
	// them from the validated programs.
	Groups []engine.Group
	// Shared lists the character classes whose match streams bind the
	// extended basis bits (MatchBasis ≥ 8) that group programs may read, in
	// slot order. Nil when the engine has no cross-group shared classes.
	Shared []charclass.Class
	// PassStats aggregates what the optimization passes did at compile.
	PassStats engine.PassStats
}

// Encode serializes the state into the framed, checksummed container. The
// sections are written in place into one buffer sized once.
func Encode(st *EngineState) []byte {
	w := newWriter(encodedSizeBound(st))
	w.section(sectionMeta, func(meta *enc) {
		meta.strs(st.Patterns)
		meta.boolean(st.FoldCase)
		meta.str(st.OptionsHash)
		meta.varint(int64(st.MaxLen))
		meta.strs(st.Nullable)
		meta.strs(st.Unbounded)
	})
	w.section(sectionPasses, func(passes *enc) {
		passes.varint(int64(st.PassStats.Rewrites))
		passes.varint(int64(st.PassStats.MergedGroups))
		passes.varint(int64(st.PassStats.DedupedCopies))
		passes.varint(int64(st.PassStats.ZeroPaths))
		passes.varint(int64(st.PassStats.GuardsInserted))
	})
	w.section(sectionGroups, func(groups *enc) {
		groups.count(len(st.Groups))
		for i := range st.Groups {
			g := &st.Groups[i]
			groups.strs(g.Names)
			groups.varint(int64(g.Chars))
			// The stored packed bytes go out verbatim, so re-encoding a decoded
			// snapshot reproduces the group section byte for byte.
			groups.blob(g.Packed)
		}
	})
	w.section(sectionShared, func(shared *enc) {
		shared.count(len(st.Shared))
		for _, cl := range st.Shared {
			b := cl.Bytes()
			shared.b = append(shared.b, b[:]...)
		}
	})
	return w.finish()
}

// encodedSizeBound bounds the container Encode writes for st: every varint
// at its longest.
func encodedSizeBound(st *EngineState) int {
	const v = binary.MaxVarintLen64
	strs := func(ss []string) int {
		n := v
		for _, s := range ss {
			n += v + len(s)
		}
		return n
	}
	n := containerBound(4, len(sectionMeta)+len(sectionPasses)+len(sectionGroups)+len(sectionShared))
	n += strs(st.Patterns) + 1 + v + len(st.OptionsHash) + v + strs(st.Nullable) + strs(st.Unbounded)
	n += 5 * v
	n += v
	for i := range st.Groups {
		n += strs(st.Groups[i].Names) + v + v + len(st.Groups[i].Packed)
	}
	return n + v + classBytes*len(st.Shared)
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
	if n := sd.count("shared class", classBytes); n > 0 {
		st.Shared = make([]charclass.Class, n)
		for i := range st.Shared {
			st.Shared[i] = charclass.FromBytes([classBytes]byte(sd.b))
			sd.b = sd.b[classBytes:]
		}
	}
	if err := sd.done(); err != nil {
		return nil, err
	}
	return st, nil
}

// Restore builds the engine the state describes. engine.Restore is the trust
// boundary — every program decoded and validated, the shared classes
// counted, each group's extended-basis bits checked against that count — and
// its refusal of a checksummed snapshot is reported as corruption.
func (st *EngineState) Restore(cfg engine.Config) (*engine.Engine, error) {
	e, err := engine.Restore(cfg, st.Groups, st.Shared, st.PassStats)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	return e, nil
}
