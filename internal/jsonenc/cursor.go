package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
)

// Cursor reads back, without reflection, the compact bytes the append
// primitives write. It is a template matcher, not a JSON parser: each
// method accepts only the shape its Append counterpart produces — no
// white space, no escapes, no exponent on an integer — and the first byte
// that deviates fails the cursor for good. Every later call is then a
// no-op that returns a zero value, so a decoder is written as straight-
// line code, the inverse of its encoder, and asks OK once at the end;
// on false the caller hands the whole input to encoding/json, which
// stays the reference for everything the template leaves out.
type Cursor struct {
	buf []byte
	pos int
	bad bool
}

// Reset points the cursor at the start of b and clears a failure.
func (c *Cursor) Reset(b []byte) { *c = Cursor{buf: b} }

// OK reports whether every byte read so far fitted.
func (c *Cursor) OK() bool { return !c.bad }

// Rest returns the bytes not yet read.
func (c *Cursor) Rest() []byte { return c.buf[c.pos:] }

// Fail marks the input as deviating.
func (c *Cursor) Fail() { c.bad = true }

// Lit reads exactly s.
func (c *Cursor) Lit(s string) {
	if !c.TryLit(s) {
		c.bad = true
	}
}

// TryLit reads s when it is next and reports whether it was; nothing is
// consumed, and nothing fails, when it is not. This is how an omitempty
// member is read: members come in encoder order, so one absent here is
// absent.
func (c *Cursor) TryLit(s string) bool {
	end := c.pos + len(s)
	if c.bad || end > len(c.buf) || string(c.buf[c.pos:end]) != s {
		return false
	}
	c.pos = end
	return true
}

// tryKey reads "name": when it is next.
func (c *Cursor) tryKey(name string) bool {
	at := c.pos
	if c.TryLit(`"`) && c.TryLit(name) && c.TryLit(`":`) {
		return true
	}
	c.pos = at
	return false
}

// String reads a quoted string on AppendString's fast path and returns
// its contents, which alias the input.
func (c *Cursor) String() []byte {
	if c.bad || c.pos >= len(c.buf) || c.buf[c.pos] != '"' {
		c.bad = true
		return nil
	}
	for i := c.pos + 1; i < len(c.buf); i++ {
		if ch := c.buf[i]; ch == '"' {
			s := c.buf[c.pos+1 : i]
			c.pos = i + 1
			return s
		} else if needsEscape(ch) {
			break
		}
	}
	c.bad = true
	return nil
}

// Bool reads true or false.
func (c *Cursor) Bool() bool {
	if c.TryLit("true") {
		return true
	}
	c.Lit("false")
	return false
}

// Uint reads what strconv.AppendUint writes, short of the few values that
// need 20 digits: 0, or up to 19 digits with no leading zero.
func (c *Cursor) Uint() (u uint64) {
	i := c.pos
	for ; i < len(c.buf) && c.buf[i]-'0' <= 9; i++ {
		u = u*10 + uint64(c.buf[i]-'0')
	}
	if n := i - c.pos; c.bad || n == 0 || n > 19 || (n > 1 && c.buf[c.pos] == '0') {
		c.bad = true
		return 0
	}
	c.pos = i
	return u
}

// Int64 reads what strconv.AppendInt writes.
func (c *Cursor) Int64() int64 {
	neg := c.TryLit("-")
	u := c.Uint()
	if neg {
		if u > 1<<63 {
			c.bad = true
		}
		return -int64(u)
	}
	if u > math.MaxInt64 {
		c.bad = true
	}
	return int64(u)
}

// Int reads an Int64 that fits an int.
func (c *Cursor) Int() int {
	v := c.Int64()
	if int64(int(v)) != v {
		c.bad = true
	}
	return int(v)
}

// Float reads a JSON number as encoding/json would into a float64. A
// whole number of up to 15 digits — nearly every reading, see
// AppendFloat — converts exactly without strconv's general parser.
func (c *Cursor) Float() float64 {
	if c.bad {
		return 0
	}
	b, start := c.buf, c.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	first := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	n := i - first
	if n == 0 || (n > 1 && b[first] == '0') {
		c.bad = true
		return 0
	}
	frac := i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')
	if !frac && n <= 15 && (u != 0 || first == start) { // -0 is not 0
		c.pos = i
		if first != start {
			return -float64(u)
		}
		return float64(u)
	}
	if i < len(b) && b[i] == '.' {
		d := i + 1
		for i = d; i < len(b) && b[i]-'0' <= 9; i++ {
		}
		if i == d {
			c.bad = true
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		d := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
		}
		if i == d {
			c.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil { // out of range: the reference's error to report
		c.bad = true
		return 0
	}
	c.pos = i
	return f
}

// Floats reads an object of numbers, {"a":1,"b":2}, appending the numbers
// to vals and returning the keys. The keys must ascend strictly: the
// reference reads such an object through a map and sorts, so ascending
// keys are the one order, free of duplicates, in which both produce the
// same list. names is the key list the caller expects — the last object
// of this kind it read; when the keys are exactly those, names itself
// comes back and no string is built, which is what lets the records of
// one stream share their name tables. The keys that come back are nil
// whenever the cursor has failed: a caller keeps them as its next
// expectation, and a list the fast path will trust must have been read
// whole.
func (c *Cursor) Floats(names []string, vals []float64) ([]string, []float64) {
	c.Lit("{")
	if c.bad || c.TryLit("}") {
		return nil, vals
	}
	start, kept := c.pos, len(vals)
	expected := len(names) > 0
	for i := 0; expected && i < len(names); i++ {
		if expected = (i == 0 || c.TryLit(",")) && c.tryKey(names[i]); expected {
			vals = append(vals, c.Float())
		}
	}
	if expected && c.TryLit("}") {
		return names, vals
	}
	if c.bad {
		return nil, vals
	}
	// Another key set: read it afresh.
	c.pos, vals = start, vals[:kept]
	fresh := make([]string, 0, len(names))
	for more := true; more && !c.bad; more = c.TryLit(",") {
		k := c.String()
		c.Lit(":")
		if len(fresh) > 0 && fresh[len(fresh)-1] >= string(k) {
			c.bad = true
		}
		fresh = append(fresh, string(k))
		vals = append(vals, c.Float())
	}
	if c.Lit("}"); c.bad {
		return nil, vals
	}
	return fresh, vals
}

// Value is the inverse of AppendValue: it finds the extent of the array
// or object that is next and leaves its contents to encoding/json, which
// decodes them into v as it would have as part of the whole document.
func (c *Cursor) Value(v any) {
	if c.bad || c.pos >= len(c.buf) || (c.buf[c.pos] != '[' && c.buf[c.pos] != '{') {
		c.bad = true
		return
	}
	depth := 0
	for i := c.pos; i < len(c.buf); i++ {
		switch c.buf[i] {
		case '"':
			for i++; i < len(c.buf) && c.buf[i] != '"'; i++ {
				if c.buf[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth == 0 {
				// A wrong extent is not valid JSON, or is not followed by
				// what the template expects next: either way it deviates.
				c.bad = json.Unmarshal(c.buf[c.pos:i+1], v) != nil
				c.pos = i + 1
				return
			}
		}
	}
	c.bad = true
}
