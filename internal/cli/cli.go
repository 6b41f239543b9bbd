// Package cli holds what the commands share: a one-line renderer for the
// public error taxonomy, so every tool reports failures the same way.
package cli

import (
	"errors"
	"fmt"

	"bitgen"
)

// Describe renders err as a one-line message that leads with the error's
// class from the public taxonomy, so scripts (and humans) can tell a
// resource refusal from an unsupported request from a cancellation from
// an engine fault without parsing Go error chains.
func Describe(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, bitgen.ErrLimit):
		var le *bitgen.LimitError
		if errors.As(err, &le) {
			return fmt.Sprintf("resource limit exceeded: %s (%d > max %d)", le.Limit, le.Value, le.Max)
		}
		return fmt.Sprintf("resource limit exceeded: %v", err)
	case errors.Is(err, bitgen.ErrUnsupported):
		var ue *bitgen.UnsupportedError
		if errors.As(err, &ue) && len(ue.Patterns) > 0 {
			return fmt.Sprintf("unsupported request: %s (patterns: %v)", ue.Feature, ue.Patterns)
		}
		return fmt.Sprintf("unsupported request: %v", err)
	case errors.Is(err, bitgen.ErrCanceled):
		return fmt.Sprintf("canceled: %v", err)
	case errors.Is(err, bitgen.ErrTransient):
		return fmt.Sprintf("transient fault (retry may succeed): %v", err)
	case errors.Is(err, bitgen.ErrSnapshot):
		var se *bitgen.SnapshotError
		if errors.As(err, &se) && se.Path != "" {
			return fmt.Sprintf("snapshot rejected (%s): %s: %s", se.Reason, se.Path, se.Detail)
		}
		if errors.As(err, &se) {
			return fmt.Sprintf("snapshot rejected (%s): %s", se.Reason, se.Detail)
		}
		return fmt.Sprintf("snapshot rejected: %v", err)
	default:
		var ie *bitgen.InternalError
		if errors.As(err, &ie) {
			return fmt.Sprintf("internal engine fault in %s (group %d): %v", ie.Op, ie.Group, ie.Value)
		}
		var re *bitgen.ReadError
		if errors.As(err, &re) {
			return fmt.Sprintf("input read failed at offset %d: %v", re.Offset, re.Err)
		}
		return err.Error()
	}
}
