package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

// A Cursor method's contract is twofold: it reads back whatever its
// Append counterpart wrote, and whatever else it accepts it reads as
// encoding/json would — anything it cannot read that way it must refuse,
// so that the caller's fallback decides.

func cursor(s string) *Cursor {
	c := new(Cursor)
	c.Reset([]byte(s))
	return c
}

// whole reports whether c read all of its input without deviating.
func whole(c *Cursor) bool { return c.OK() && len(c.Rest()) == 0 }

func TestCursorFloat(t *testing.T) {
	roundTrip := func(f float64) bool {
		b, ok := AppendFloat(nil, f)
		if !ok {
			return true
		}
		c := cursor(string(b))
		if got := c.Float(); !whole(c) || math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("%v, written %s, read back as %v (whole %v)", f, b, got, whole(c))
			return false
		}
		return true
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 12345, 999999999999999, 1e15, 1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53), 1 << 62,
		0.5, -2.5, 1.234e-7, 3e-9, 1e-6, 1e20, 1e21, 1e22, 123456789012345678, 0.1 + 0.7, 61.7396883057667,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		roundTrip(f)
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(i int64) bool { return roundTrip(float64(i)) && roundTrip(float64(i>>20)) }, nil); err != nil {
		t.Error(err)
	}
	// Any literal: read as encoding/json reads it, and refused when it
	// refuses (Float takes the whole number grammar, so never otherwise).
	for _, lit := range []string{
		"0", "-0", "-0.0", "7", "-7", "007", "-01", "1.", ".5", "1.5", "1.50", "1e5", "1E+5", "1e-5", "1e", "1e+", "-", "", "+1",
		"123456789012345", "1234567890123456", "12345678901234567890123", "1e400", "-1e400", "1e-400", "0x10", "1_000", "NaN", "1.5.5", "1e5e5",
	} {
		var want float64
		valid := json.Unmarshal([]byte(lit), &want) == nil
		c := cursor(lit)
		got := c.Float()
		switch {
		case whole(c) && !valid:
			t.Errorf("%q read as %v; encoding/json refuses it", lit, got)
		case whole(c) && math.Float64bits(got) != math.Float64bits(want):
			t.Errorf("%q read as %v, encoding/json reads %v", lit, got, want)
		case !whole(c) && valid:
			t.Errorf("%q refused; encoding/json reads %v", lit, want)
		}
	}
}

func TestCursorIntegers(t *testing.T) {
	if err := quick.Check(func(i int64, u uint64) bool {
		u >>= 1 // 19 digits at most
		c := cursor(strconv.FormatInt(i, 10) + "," + strconv.FormatUint(u, 10))
		gi := c.Int64()
		c.Lit(",")
		gu := c.Uint()
		return whole(c) && gi == i && gu == u
	}, nil); err != nil {
		t.Error(err)
	}
	for _, lit := range []string{
		"0", "-0", "00", "-", "", "12", "012", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "99999999999999999999", "1.0", "1e3", "+1", " 1",
	} {
		var want int64
		valid := json.Unmarshal([]byte(lit), &want) == nil
		c := cursor(lit)
		if got := c.Int64(); whole(c) && (!valid || got != want) {
			t.Errorf("%q read as %d; encoding/json: valid %v, %d", lit, got, valid, want)
		}
		var wantU uint64
		valid = json.Unmarshal([]byte(lit), &wantU) == nil
		c = cursor(lit)
		if got := c.Uint(); whole(c) && (!valid || got != wantU) {
			t.Errorf("%q read as unsigned %d; encoding/json: valid %v, %d", lit, got, valid, wantU)
		}
	}
}

func TestCursorString(t *testing.T) {
	for _, s := range []string{"", "tx_frames", "ber=1e-06/tcp/s3", `we"ird\<&>`, "läyer", "a\nb\x00", " ", "\xff\xfe", "\x7f", "a<b", "a&b"} {
		written := AppendString(nil, s)
		plain := true
		for i := 0; i < len(s); i++ {
			plain = plain && !needsEscape(s[i])
		}
		c := cursor(string(written))
		if got := c.String(); whole(c) != plain || (plain && string(got) != s) {
			t.Errorf("%q, written %s: read %q (whole %v), want the fast path alone to be read", s, written, got, whole(c))
		}
	}
	for _, in := range []string{``, `"`, `"abc`, `abc"`, `"a\"`, "\"a\tb\""} {
		c := cursor(in)
		if c.String(); c.OK() {
			t.Errorf("%q read as a string", in)
		}
	}
}

func TestCursorFloats(t *testing.T) {
	known := []string{"a", "b", "c"}
	for _, tc := range []struct {
		in     string
		names  []string // nil: refused
		vals   []float64
		shared bool // the expected list itself came back
	}{
		{`{"a":1,"b":2.5,"c":-3}`, known, []float64{1, 2.5, -3}, true},
		{`{"a":1,"b":2}`, []string{"a", "b"}, []float64{1, 2}, false},
		{`{"a":1,"b":2,"c":3,"d":4}`, []string{"a", "b", "c", "d"}, []float64{1, 2, 3, 4}, false},
		{`{"a":1,"bb":2,"c":3}`, []string{"a", "bb", "c"}, []float64{1, 2, 3}, false},
		{`{}`, []string{}, nil, false},
		{`{"b":1,"a":2}`, nil, nil, false},         // descending
		{`{"a":1,"a":2}`, nil, nil, false},         // duplicate
		{`{"a":1,"b":2,"b":3}`, nil, nil, false},   // duplicate past the expected prefix
		{`{"a":1,"b":2,"c":3,}`, nil, nil, false},  // trailing comma
		{`{"a":1,"b":2,"c":3`, nil, nil, false},    // torn
		{`{"a":1, "b":2,"c":3}`, nil, nil, false},  // a space
		{`{"a":1,"b":"2","c":3}`, nil, nil, false}, // not a number
		{`{"a":1,"b":null,"c":3}`, nil, nil, false},
		{`{"\u0061":1}`, nil, nil, false}, // an escape: the reference's
	} {
		c := cursor(tc.in)
		names, vals := c.Floats(known, []float64{9})
		if whole(c) != (tc.names != nil) {
			t.Errorf("%s: read whole: %v", tc.in, whole(c))
			continue
		}
		if tc.names == nil {
			if names != nil {
				t.Errorf("%s: refused, yet keys %v came back for the caller to expect next time", tc.in, names)
			}
			continue
		}
		if len(names) != len(tc.names) || (len(names) > 0 && !reflect.DeepEqual(names, tc.names)) || !reflect.DeepEqual(vals, append([]float64{9}, tc.vals...)) {
			t.Errorf("%s: read %v %v", tc.in, names, vals)
		}
		if shared := len(names) > 0 && &names[0] == &known[0]; shared != tc.shared {
			t.Errorf("%s: expected list came back: %v, want %v", tc.in, shared, tc.shared)
		}
	}
}

func TestCursorValue(t *testing.T) {
	type fault struct {
		At   int    `json:"at_ns"`
		Node string `json:"node"`
	}
	in := []fault{{1, `]}"[{\`}, {2, "<tag>"}}
	written, err := AppendValue([]byte(`{"faults":`), -1, in)
	if err != nil {
		t.Fatal(err)
	}
	c := cursor(string(written) + `,"next":1}`)
	var out []fault
	c.Lit(`{"faults":`)
	c.Value(&out)
	c.Lit(`,"next":1}`)
	if !whole(c) || !reflect.DeepEqual(out, in) {
		t.Errorf("%s read back as %+v (whole %v)", written, out, whole(c))
	}
	for _, bad := range []string{`null`, `7`, `"s"`, `[1,2`, `[1,2}`, `{"a":[1,2]`, `["unterminated]`, ``} {
		var v any
		c := cursor(bad)
		if c.Value(&v); c.OK() {
			t.Errorf("%q read as a value: %v", bad, v)
		}
	}
}

// After the first deviation nothing is read and nothing moves.
func TestCursorFailureIsSticky(t *testing.T) {
	c := cursor(`{"a":1}`)
	c.Lit(`{"b":`)
	if c.OK() {
		t.Fatal("a wrong literal was read")
	}
	rest := len(c.Rest())
	var v any
	names, vals := c.Floats(nil, nil)
	c.Value(&v)
	if c.TryLit(`{`) || c.Bool() || c.String() != nil || c.Int64() != 0 || c.Int() != 0 || c.Uint() != 0 || c.Float() != 0 ||
		names != nil || vals != nil || v != nil || c.OK() || len(c.Rest()) != rest {
		t.Errorf("a failed cursor went on reading: %d bytes left of %d", len(c.Rest()), rest)
	}
	c.Reset([]byte(`true`))
	if !c.Bool() || !whole(c) {
		t.Error("Reset did not clear the failure")
	}
}
