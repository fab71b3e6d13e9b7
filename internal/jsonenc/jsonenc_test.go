package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

// The primitives' contract is encoding/json's bytes; hold them to it on
// the shapes reports carry (counts, ratios, tiny and huge magnitudes,
// identifiers, strings that need escapes) and on random values.

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	check := func(f float64) bool {
		want, err := json.Marshal(f)
		got, ok := AppendFloat([]byte("x"), f)
		if ok != (err == nil) {
			t.Errorf("%v: ok %v, encoding/json error %v", f, ok, err)
			return false
		}
		if !ok {
			want = nil
		}
		if string(got) != "x"+string(want) {
			t.Errorf("%v: got %s, want x%s", f, got, want)
			return false
		}
		return true
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 12345, 1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53), 1 << 62, math.MaxInt64, math.MinInt64,
		0.5, -2.5, 4.5, 1.234e-7, 3e-9, 1e-6, 9.99e-7, 1e20, 1e21, 1e22, 123456789012345678, 0.1 + 0.7,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		check(f)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	// Whole numbers, which take the integer path.
	if err := quick.Check(func(i int64) bool { return check(float64(i)) && check(float64(i>>20)) }, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) bool {
		want, _ := json.Marshal(s)
		got := AppendString([]byte("x"), s)
		if string(got) != "x"+string(want) {
			t.Errorf("%q: got %s, want x%s", s, got, want)
			return false
		}
		return true
	}
	for _, s := range []string{"", "tx_frames", "ber=1e-06/tcp/s3", `we"ird\<&>`, "läyer", "a\nb\x00", "\u2028", "\xff\xfe", "\x7f"} {
		check(s)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestLayouts(t *testing.T) {
	v := map[string]any{"a": []int{1, 2}, "b": map[string]int{"c": 3}}
	for _, depth := range []int{-1, 0, 2} {
		var want []byte
		if depth < 0 {
			want, _ = json.Marshal(v)
		} else {
			want, _ = json.MarshalIndent(v, indents[:2*depth], "  ")
		}
		got, err := AppendValue(nil, depth, v)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendValue at depth %d: %v\n%s\nwant\n%s", depth, err, got, want)
		}
		// The same document from the member primitives.
		d1, d2 := Deeper(depth), Deeper(Deeper(depth))
		b := []byte{'{'}
		b = append(AppendMember(b, d1, "a"), '[')
		b = append(AppendBreak(b, d2), '1', ',')
		b = append(AppendBreak(b, d2), '2')
		b = append(AppendBreak(b, d1), ']', ',')
		b = append(AppendMember(b, d1, "b"), '{')
		b = append(AppendMember(b, d2, "c"), '3')
		b = append(AppendBreak(b, d1), '}')
		b = append(AppendBreak(b, depth), '}')
		if !bytes.Equal(b, want) {
			t.Errorf("primitives at depth %d:\n%s\nwant\n%s", depth, b, want)
		}
	}
	if _, err := AppendValue(nil, -1, math.NaN()); err == nil {
		t.Error("AppendValue encoded NaN")
	}
}
