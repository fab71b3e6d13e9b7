package virtualwire

import (
	"errors"
	"fmt"
	"strings"
)

// Typed sentinel errors. Every failure the facade reports is wrapped
// around one of these with %w, so callers — and in particular the
// campaign retry policy — classify outcomes with errors.Is instead of
// string matching.
var (
	// ErrScriptParse wraps every FSL parse or compile failure surfaced
	// by LoadScript, LoadScriptScenario, AddNodesFromScript,
	// ScenarioNames and CheckScript.
	ErrScriptParse = errors.New("script parse failed")

	// ErrLaunchFailed marks a run whose INIT distribution gave up: one
	// or more nodes never acknowledged within the launch deadline.
	// Returned by RunReport.Err; always accompanied by ErrUnreachable.
	ErrLaunchFailed = errors.New("scenario launch failed")

	// ErrUnreachable marks nodes that never acknowledged INIT. Wrapped
	// together with ErrLaunchFailed so callers can match either.
	ErrUnreachable = errors.New("node unreachable")

	// ErrHorizonExceeded marks a run cut short by its real-time budget:
	// the context deadline expired before the scenario finished. The
	// context's own error is wrapped alongside, so
	// errors.Is(err, context.DeadlineExceeded) also holds.
	ErrHorizonExceeded = errors.New("run horizon exceeded")
)

// scriptErr wraps an FSL front-end failure with the ErrScriptParse
// sentinel while preserving the original chain.
func scriptErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("virtualwire: %w: %w", ErrScriptParse, err)
}

// rejection is a configuration the plan (or an Add* call) refuses. The
// text is what every caller sees; field additionally names the offending
// member the way campaign specs spell it ("trunk_faults[2].trunk",
// "from") — like TopologyKind.String — so package campaign can root the
// rejection at a spec path without parsing the text. It reads it through
// errors.As and the Field method; nothing else does.
type rejection struct{ field, msg string }

func (e *rejection) Error() string { return "virtualwire: " + e.msg }
func (e *rejection) Field() string { return e.field }

func rejectf(field, format string, args ...any) error {
	return &rejection{field: field, msg: fmt.Sprintf(format, args...)}
}

// Err converts the report's terminal state into a typed error, or nil
// for a run that at least launched. A launch failure yields an error
// matching both ErrLaunchFailed and ErrUnreachable (errors.Is), naming
// the silent nodes. Flagged scenario errors are a verdict, not an
// execution failure, and do not produce an error here — inspect Passed
// and Errors for those.
func (r RunReport) Err() error {
	if r.Result.LaunchFailed {
		return fmt.Errorf("virtualwire: %w: %w: %s",
			ErrLaunchFailed, ErrUnreachable, strings.Join(r.Unreachable, ", "))
	}
	return nil
}
