package exp

import (
	"math"
	"testing"
)

func TestKeyEncodingCanonical(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	enc := func(c cfg, f float64) string {
		b := AppendString(nil, "sim")
		b = AppendString(AppendInt(b, c.A), c.B)
		return string(AppendFloat(b, f))
	}
	k1 := enc(cfg{1, "x"}, 2.5)
	if k2 := enc(cfg{1, "x"}, 2.5); k1 != k2 {
		t.Fatal("identical parts encoded differently")
	}
	if k1 == enc(cfg{2, "x"}, 2.5) {
		t.Fatal("different parts collided")
	}
	// Part boundaries matter: ("ab", "c") != ("a", "bc").
	if string(AppendString(AppendString(nil, "ab"), "c")) == string(AppendString(AppendString(nil, "a"), "bc")) {
		t.Fatal("string boundary not canonical")
	}
	// So do slice boundaries: ([1 2], [3]) != ([1], [2 3]).
	if string(AppendInts(AppendInts(nil, []int{1, 2}), []int{3})) == string(AppendInts(AppendInts(nil, []int{1}), []int{2, 3})) {
		t.Fatal("slice boundary not canonical")
	}
	// nil and empty run alike and may share a key.
	if string(AppendFloats(nil, nil)) != string(AppendFloats(nil, []float64{})) {
		t.Fatal("nil and empty slices encoded differently")
	}
	for _, pair := range [][2][]byte{
		{AppendInt(nil, -1), AppendInt(nil, 1)},
		{AppendInt(nil, math.MaxInt64), AppendInt(nil, math.MinInt64)},
		{AppendInt64(nil, 1<<40), AppendInt64(nil, 1<<40+1)},
		{AppendFloat(nil, 0), AppendFloat(nil, math.SmallestNonzeroFloat64)},
		{AppendBool(nil, false), AppendBool(nil, true)},
		{AppendBools(nil, []bool{true}), AppendBools(nil, []bool{true, true})},
		{AppendStrings(nil, []string{""}), AppendStrings(nil, nil)},
	} {
		if string(pair[0]) == string(pair[1]) {
			t.Errorf("distinct values share encoding %x", pair[0])
		}
	}
}

func TestHashKey(t *testing.T) {
	h := HashKey(AppendString(nil, "exp"))
	if len(h) != 64 {
		t.Fatalf("len = %d, want 64 hex digits", len(h))
	}
	for _, c := range h {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			t.Fatalf("%q is not lowercase hex", h)
		}
	}
	if h == HashKey(AppendString(nil, "exq")) {
		t.Fatal("distinct keys hashed alike")
	}
}
