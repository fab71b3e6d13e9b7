package core

import (
	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
)

// Test-only access to what an engine decides for itself. No product code
// can force a strategy: the cost model picks it (Engine.load).

// ForceStrategy makes a loaded engine classify under s whatever its cost
// model says, so a test can run one script under both searches.
func (e *Engine) ForceStrategy(s Strategy) { e.classifier.Strategy = s }

// ClassifierStrategy reports the search the engine's loaded classifier
// runs.
func (e *Engine) ClassifierStrategy() Strategy { return e.classifier.Strategy }

// LoadedProgram and LoadedDispatch expose what the engine adopted, to
// check that engines of one testbed share both.
func (e *Engine) LoadedProgram() *Program   { return e.prog }
func (e *Engine) LoadedDispatch() *Dispatch { return e.classifier.dispatch }

// VarBinding reads a filter variable's run-time binding.
func (e *Engine) VarBinding(v VarID) []byte { return e.classifier.VarBinding(v) }

// ControlFrame encodes m as the control frame src sends dst, for tests
// that forge what MODIFY or a hostile peer can put on the wire.
func ControlFrame(src, dst packet.MAC, m *Msg) *ether.Frame {
	fr, _ := encodeMsg(nil, src, dst, m)
	return fr
}
