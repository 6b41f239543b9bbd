// Package bgerr defines the error taxonomy shared by every layer of the
// engine. The public package re-exports these types (see errors.go at the
// repository root), so internal packages can produce errors that callers
// classify with errors.Is / errors.As against the public identities.
//
// The taxonomy separates five failure classes:
//
//   - ErrLimit: the caller exceeded a configured resource limit (input
//     size, pattern count, program size, iteration cap, device memory).
//     The request was refused or aborted; the engine is unaffected.
//   - ErrUnsupported: the request asks for something the engine cannot
//     do by design (unknown device, unbounded patterns in streaming).
//   - ErrCanceled: the caller's context was canceled or its deadline
//     expired; the run was abandoned at a safe boundary.
//   - ErrTransient: an environmental fault that may succeed if simply
//     retried (a failed kernel launch — sticky context errors, ECC
//     events, launch-queue hiccups on a real device; a refused or dropped
//     peer connection in internal/cluster, whose router fails over to the
//     next replica). The three classes above are terminal: retrying
//     cannot change the answer.
//   - *InternalError: an invariant was violated inside the engine (a
//     contained panic). These indicate bugs, carry the recovered value
//     and stack, and should be reported — but they do not crash the
//     process, and the Engine that produced one remains usable.
package bgerr

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Sentinel identities for errors.Is classification. Concrete errors carry
// detail (which limit, which patterns) and match these via Is methods.
var (
	ErrLimit       = errors.New("bitgen: resource limit exceeded")
	ErrUnsupported = errors.New("bitgen: unsupported operation")
	ErrCanceled    = errors.New("bitgen: run canceled")
	ErrTransient   = errors.New("bitgen: transient fault")
)

// LimitError reports a violated resource limit.
type LimitError struct {
	// Limit names the limit, e.g. "input-bytes", "patterns",
	// "program-instructions", "while-iterations", "device-memory-bytes".
	Limit string
	// Value is the observed value, Max the configured ceiling.
	Value, Max int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("bitgen: %s limit exceeded: %d > %d", e.Limit, e.Value, e.Max)
}

// Is makes errors.Is(err, ErrLimit) true for every *LimitError.
func (e *LimitError) Is(target error) bool { return target == ErrLimit }

// UnsupportedError reports a request outside the engine's design envelope.
type UnsupportedError struct {
	// Feature names what was asked for, e.g. "streaming unbounded
	// patterns" or "device".
	Feature string
	// Patterns lists every offending pattern (all of them, not just the
	// first), when the refusal is pattern-specific.
	Patterns []string
}

func (e *UnsupportedError) Error() string {
	if len(e.Patterns) == 0 {
		return "bitgen: unsupported: " + e.Feature
	}
	return fmt.Sprintf("bitgen: unsupported: %s: %s", e.Feature, strings.Join(e.Patterns, ", "))
}

// Is makes errors.Is(err, ErrUnsupported) true for every *UnsupportedError.
func (e *UnsupportedError) Is(target error) bool { return target == ErrUnsupported }

// canceledError wraps a context error so that both
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled) (or
// context.DeadlineExceeded) hold.
type canceledError struct{ cause error }

func (e *canceledError) Error() string { return "bitgen: canceled: " + e.cause.Error() }

func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

func (e *canceledError) Unwrap() error { return e.cause }

// Canceled wraps a context error into the taxonomy. A nil cause defaults
// to context.Canceled.
func Canceled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &canceledError{cause: cause}
}

// transientError marks a fault as retryable: both
// errors.Is(err, ErrTransient) and errors.Is(err, cause-identity) hold.
type transientError struct{ cause error }

func (e *transientError) Error() string { return "bitgen: transient: " + e.cause.Error() }

func (e *transientError) Is(target error) bool { return target == ErrTransient }

func (e *transientError) Unwrap() error { return e.cause }

// Transient marks an error as a retryable environmental fault. A nil
// cause returns nil.
func Transient(cause error) error {
	if cause == nil {
		return nil
	}
	return &transientError{cause: cause}
}

// ErrSnapshot is the identity of every engine-snapshot persistence
// failure: a snapshot that could not be decoded (corrupt, truncated),
// was written by an incompatible format version, or was compiled under
// different options than the loader's. Callers classify with
// errors.Is(err, ErrSnapshot) and fall back to recompilation — a bad
// snapshot is never served.
var ErrSnapshot = errors.New("bitgen: snapshot rejected")

// SnapshotError reports why a snapshot was refused at load (or save).
type SnapshotError struct {
	// Reason is a stable token: "corrupt", "truncated",
	// "version-mismatch", "options-mismatch", "key-mismatch" or
	// "store-io". Corrupt/truncated snapshots are quarantine candidates;
	// version/options mismatches leave the file intact (it may be valid
	// for another build or configuration).
	Reason string
	// Detail is the human-readable specifics (which section, which CRC).
	Detail string
	// Path names the snapshot file when the failure is tied to one.
	Path string
}

func (e *SnapshotError) Error() string {
	var b strings.Builder
	b.WriteString("bitgen: snapshot rejected (" + e.Reason + ")")
	if e.Path != "" {
		b.WriteString(" " + e.Path)
	}
	if e.Detail != "" {
		b.WriteString(": " + e.Detail)
	}
	return b.String()
}

// Is makes errors.Is(err, ErrSnapshot) true for every *SnapshotError.
func (e *SnapshotError) Is(target error) bool { return target == ErrSnapshot }

// InternalError is a contained engine panic: an invariant violation that
// was caught at an execution boundary and converted into an error instead
// of crashing the process.
type InternalError struct {
	// Op is the boundary that contained the panic: "compile" or "run".
	Op string
	// Group is the CTA group index whose execution panicked, or -1 when
	// the panic happened outside group execution.
	Group int
	// Patterns lists the regexes assigned to the poisoned group (or being
	// compiled), so the offending input can be identified and quarantined.
	Patterns []string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *InternalError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bitgen: internal error during %s", e.Op)
	if e.Group >= 0 {
		fmt.Fprintf(&b, " (group %d)", e.Group)
	}
	if len(e.Patterns) > 0 {
		fmt.Fprintf(&b, " [patterns: %s]", strings.Join(e.Patterns, ", "))
	}
	fmt.Fprintf(&b, ": %v", e.Value)
	return b.String()
}
