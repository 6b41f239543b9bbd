package bitgen

import (
	"context"
	"fmt"
	"io"
)

// ReadError reports that ScanReader's input reader failed mid-stream.
// Offset is the absolute stream offset of the first byte that could not
// be read — every match ending before Offset was already emitted, so a
// caller can resume by re-opening the source at Offset and scanning the
// remainder with a fresh ScanReader call.
type ReadError struct {
	// Offset is the absolute stream offset at which the read failed.
	Offset int64
	// Err is the reader's error.
	Err error
}

func (e *ReadError) Error() string {
	return fmt.Sprintf("bitgen: stream read failed at offset %d: %v", e.Offset, e.Err)
}

func (e *ReadError) Unwrap() error { return e.Err }

// ScanReader scans a stream in fixed-size chunks, reporting every match
// end position (relative to the whole stream) through emit. Chunks overlap
// by maxLen-1 bytes so matches straddling a boundary are found exactly
// once.
//
// Streaming requires every pattern to have a finite maximum match length
// (no '*', '+' or open-ended '{n,}'): otherwise a match could span any
// number of chunks and ScanReader returns a *UnsupportedError listing
// every unbounded pattern. The bound is computed once at Compile time;
// this call does no per-call pattern analysis. chunkSize must exceed the
// longest possible match; zero means 256 KiB.
func (e *Engine) ScanReader(r io.Reader, chunkSize int, emit func(Match)) error {
	return e.ScanReaderContext(context.Background(), r, chunkSize, emit)
}

// ScanReaderContext is ScanReader honoring a context, checked before each
// chunk is read and inside the per-chunk run (see RunContext).
//
// Chunks flow through a bounded three-stage pipeline (read → chunk workers
// → in-order emit). Matches are emitted in (End, Pattern, Index) order, as
// Run on the whole stream would list them; a chunk that fails ends the scan
// with its error after every match of the chunks before it was emitted.
// Each worker runs its chunks on a reusable engine session, so the
// steady-state chunk loop performs no heap allocation. An engine pinned to
// the NFA reference refuses to stream with an *UnsupportedError.
func (e *Engine) ScanReaderContext(ctx context.Context, r io.Reader, chunkSize int, emit func(Match)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.ref != nil {
		return errPinned("ScanReader")
	}
	if chunkSize == 0 {
		chunkSize = 256 << 10
	}
	if len(e.unbounded) > 0 {
		return &UnsupportedError{
			Feature:  "streaming patterns with unbounded match length",
			Patterns: dedupePatterns(e.unbounded),
		}
	}
	if len(e.nullable) > 0 {
		// An empty-matchable pattern matches at every stream offset — an
		// unbounded firehose of empty matches with no chunk-stable
		// semantics. Run handles them; streaming refuses them.
		return &UnsupportedError{
			Feature:  "streaming patterns that match the empty string",
			Patterns: dedupePatterns(e.nullable),
		}
	}
	maxLen := e.maxLen
	if maxLen == 0 {
		return &UnsupportedError{Feature: "streaming empty patterns"}
	}
	if chunkSize <= maxLen {
		return &UnsupportedError{Feature: fmt.Sprintf("chunk size %d, not above the longest match length %d", chunkSize, maxLen)}
	}
	if e.limits.MaxInputBytes > 0 && int64(chunkSize+maxLen-1) > e.limits.MaxInputBytes {
		return &LimitError{Limit: "input-bytes", Value: int64(chunkSize + maxLen - 1), Max: e.limits.MaxInputBytes}
	}
	return e.scanPipelined(ctx, r, chunkSize, maxLen, emit)
}

// dedupePatterns returns the list with duplicates removed, first
// occurrence order preserved, always as a fresh slice. The refusal errors
// above name each offending pattern once even when the caller compiled it
// at several public indexes (the per-index match fan-out is unaffected —
// only the diagnostic list collapses). Stored engine state keeps the
// per-index lists verbatim so snapshots round-trip byte-identically.
func dedupePatterns(ps []string) []string {
	out := make([]string, 0, len(ps))
	seen := make(map[string]bool, len(ps))
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
