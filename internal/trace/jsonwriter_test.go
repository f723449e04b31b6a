package trace

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAppendFloatMatchesEncodingJSON: floats at and around the 'e'
// cutoffs, extremes and random bit patterns format as encoding/json
// formats them.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.001, 1.5, 1099511627.776,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1.234e-9, 5e-324,
		1e21, math.Nextafter(1e21, 0), 1e20, -1e21, 1.5e300, math.MaxFloat64}
	rng := rand.New(rand.NewSource(1))
	for len(vals) < 2000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			vals = append(vals, f)
		}
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); string(got) != string(want) {
			t.Errorf("appendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestAppendStringMatchesEncodingJSON: every single byte, the escape
// cases and random byte strings quote as encoding/json quotes them.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	strs := []string{"", "plain", "tau01", `<>&"\`, "a\u2028", "\u2029b", "é日本", "\xff", "a\xe2\x80", "\x7f"}
	for c := 0; c < 256; c++ {
		strs = append(strs, string([]byte{byte(c)}))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256))
			if rng.Intn(2) == 0 {
				b[j] = byte(' ' + rng.Intn(95)) // mostly printable ASCII
			}
		}
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); string(got) != string(want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendUsMatchesAppendFloat: appendUs writes the bytes appendFloat
// writes for the float quotient, at every remainder mod 1000 just below
// 1000·2^43 ns, where its own digits stop being provably shortest, and
// just above it, where it falls back to appendFloat; also near zero,
// past 2^40 ns, at −1 and at 2^53.
func TestAppendUsMatchesAppendFloat(t *testing.T) {
	ns := []int64{-1, 0, 1 << 53, math.MaxInt64}
	for r := int64(0); r < 1000; r++ {
		ns = append(ns, r, 1000+r, 1<<40+r, usExact-1000+r, usExact+r)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		ns = append(ns, rng.Int63n(usExact), rng.Int63n(1<<(1+rng.Intn(53))))
	}
	for _, n := range ns {
		want := appendFloat(nil, float64(n)/1e3)
		if got := appendUs(nil, n); string(got) != string(want) {
			t.Errorf("appendUs(%d) = %s, want %s", n, got, want)
		}
	}
}
