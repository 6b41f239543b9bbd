package bitgen

import "bitgen/internal/bgerr"

// The error taxonomy. Every public entry point (Compile, Run, CountOnly,
// ScanReader and their Context variants) fails structured:
// callers can classify any returned error with errors.Is / errors.As
// against these identities.
//
//   - errors.Is(err, ErrLimit): a configured resource limit was exceeded
//     (input size, pattern count, program size, while-iteration cap,
//     device-memory budget). errors.As(&*LimitError) names the limit and
//     carries the observed and maximum values.
//   - errors.Is(err, ErrUnsupported): the request is outside the engine's
//     design envelope (unknown device; streaming with unbounded patterns).
//     errors.As(&*UnsupportedError) lists every offending pattern.
//   - errors.Is(err, ErrCanceled): the context passed to a *Context
//     variant was canceled or timed out. The underlying context error is
//     in the chain, so errors.Is(err, context.Canceled) and
//     errors.Is(err, context.DeadlineExceeded) also work.
//   - errors.Is(err, ErrTransient): an environmental fault worth retrying
//     (a failed kernel launch); the caller may retry.
//   - errors.As(&*InternalError): an engine invariant was violated — a
//     contained panic. The process survives, the Engine remains usable,
//     and the error carries the CTA group index, the group's patterns and
//     the recovered stack for reporting.
//   - errors.As(&*ReadError): ScanReader's input reader failed mid-stream;
//     the error carries the absolute stream offset for resumption.
//   - errors.Is(err, ErrSnapshot): a persisted engine snapshot was refused
//     by LoadEngine (corrupt, truncated, wrong format version, compiled
//     under different options) or the snapshot store failed.
//     errors.As(&*SnapshotError) carries the reason and file path; the
//     correct response is always to fall back to Compile.
var (
	ErrLimit       = bgerr.ErrLimit
	ErrUnsupported = bgerr.ErrUnsupported
	ErrCanceled    = bgerr.ErrCanceled
	ErrTransient   = bgerr.ErrTransient
	ErrSnapshot    = bgerr.ErrSnapshot
)

// LimitError reports which resource limit was exceeded (see Limits).
type LimitError = bgerr.LimitError

// UnsupportedError reports a request the engine cannot serve by design,
// listing all offending patterns when the refusal is pattern-specific.
type UnsupportedError = bgerr.UnsupportedError

// InternalError is a contained engine panic: an invariant violation
// converted into an error at the Compile or Run boundary instead of
// crashing the process. Group and Patterns identify the poisoned CTA
// group so the offending input can be quarantined.
type InternalError = bgerr.InternalError

// SnapshotError reports why LoadEngine (or the snapshot store) refused a
// persisted engine snapshot. Reason is a stable token — "corrupt",
// "truncated", "version-mismatch", "options-mismatch", "key-mismatch",
// "store-io" — and Path names the offending file when there is one.
type SnapshotError = bgerr.SnapshotError
