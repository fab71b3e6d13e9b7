// Package jsonenc holds the append-style JSON primitives the report and
// campaign-record encoders are written in. They produce, without
// reflection, exactly the bytes encoding/json produces for the same
// shape, in either of its two layouts: compact (depth < 0), which is
// what json.Marshal writes and every campaign record carries, or the
// SetIndent("", "  ") layout with a value's closing bracket at the
// given depth.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
)

const indents = "                " // 8 levels; reports nest 5 deep

// AppendMember starts an object member at depth: line break and indent
// (when indenting), the quoted key, the colon.
func AppendMember(b []byte, depth int, key string) []byte {
	b = AppendBreak(b, depth)
	b = AppendString(b, key)
	if depth < 0 {
		return append(b, ':')
	}
	return append(b, ": "...)
}

// AppendBreak starts a new line at depth; compact output has none.
func AppendBreak(b []byte, depth int) []byte {
	if depth < 0 {
		return b
	}
	b = append(b, '\n')
	return append(b, indents[:2*depth]...)
}

// Deeper is the depth of a value's members given the value's own.
func Deeper(depth int) int {
	if depth < 0 {
		return depth
	}
	return depth + 1
}

// AppendString quotes s the way encoding/json would. Identifiers — the
// overwhelmingly common case for node, layer and metric names — take
// the allocation-free fast path; anything needing escapes falls back to
// the real encoder.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if needsEscape(s[i]) {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// needsEscape reports whether a string holding c is off the fast path of
// AppendString, and so of Cursor.String.
func needsEscape(c byte) bool {
	return c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&'
}

// AppendFloat formats f exactly as encoding/json does. Like it, it
// refuses NaN and the infinities, which JSON cannot carry: ok is false
// and b comes back unchanged.
func AppendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	// Nearly every reading is a count: a whole number prints as its
	// digits, which strconv's integer path writes several times faster
	// than the shortest-float search. (-0 prints as "-0"; leave it.)
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10), true
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims "e-09" style exponents to "e-9".
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// AppendValue appends a small, irregular value the hand-written
// encoders leave to encoding/json, in the layout of a value whose
// closing bracket sits at depth.
func AppendValue(b []byte, depth int, v any) ([]byte, error) {
	var enc []byte
	var err error
	if depth < 0 {
		enc, err = json.Marshal(v)
	} else {
		enc, err = json.MarshalIndent(v, indents[:2*depth], "  ")
	}
	if err != nil {
		return b, err
	}
	return append(b, enc...), nil
}
