package api

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// checkNumber holds number on the literal s to strconv.ParseFloat(s, 32),
// the call encoding/json makes: it must end where s does, and a value it
// calls exact must carry strconv's bits. It runs twice, once with s at
// the very end of the bytes, where the digits are read one at a time, and
// once with more body after it, where they are read sixteen at a time;
// both must decide the same. It reports whether the fast path took s.
func checkNumber(t *testing.T, buf []byte, s string) bool {
	t.Helper()
	want, err := strconv.ParseFloat(s, 32)
	var exact [2]bool
	for k, b := range [][]byte{append(buf[:0], s...), append(append(buf[:0], s...), ",1234567890123456,"...)} {
		f, end, ok := number(b, 0)
		if end != len(s) {
			t.Fatalf("number(%q) ends at %d, want %d", b, end, len(s))
		}
		if ok && (err != nil || math.Float32bits(f) != math.Float32bits(float32(want))) {
			t.Fatalf("number(%q) = %x on the fast path, strconv: %x, %v", s, math.Float32bits(f), math.Float32bits(float32(want)), err)
		}
		exact[k] = ok
	}
	if exact[0] != exact[1] {
		t.Fatalf("number(%q): fast path %v at the end of the bytes, %v inside them", s, exact[0], exact[1])
	}
	return exact[0]
}

// TestNumberFastPathBoundaries pins which literals the fast path takes:
// at most 15 significant digits and a decimal exponent within ±22, less
// the decimals whose float64 rounding is a float32 midpoint. Each literal
// past a limit or on a midpoint rounds to the wrong float32 when the fast
// path takes it anyway.
func TestNumberFastPathBoundaries(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, c := range []struct {
		s     string
		exact bool
	}{
		{"123456789012345", true},
		{"1234567890123456", false},
		{"-1.23456789012345", true},
		{"1.234567890123456", false},
		{"0.000123456789012345", true},
		{"0.0001234567890123456", false},
		{"9937053619069047e-20", false},
		{"9489566088923531e5", false},
		{"1e22", true},
		{"1e23", false},
		{"1e-22", true},
		{"1e-23", false},
		{"123456789012345e22", true},
		{"816690516333170e23", false},
		{"643589603832595e-23", false},
		{"-0", true},
		{"-0.0e-0", true},
		{"0e999", false},
		{"1e-45", false},
		{"3.4028235e38", false},
		{"3.4028236e38", false},
		{"1.83448864845559e-03", false},
		{"7.34046057004889e-06", false},
		{"1.96299845020353e+35", false},
		{"2.18492285455461e+20", false},
	} {
		if got := checkNumber(t, buf, c.s); got != c.exact {
			t.Errorf("number(%q): fast path %v, want %v", c.s, got, c.exact)
		}
	}
}

// TestNumberMatchesStrconv holds the fast path to strconv on a seeded
// sample of float32 bit patterns, each printed shortest and with 9, 15
// and 16 significant digits.
func TestNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 31))
	buf := make([]byte, 0, 64)
	fast, n := 0, 0
	for range 1_000_000 {
		f := math.Float32frombits(rng.Uint32())
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			continue
		}
		for _, s := range []string{
			strconv.FormatFloat(float64(f), 'g', -1, 32),
			strconv.FormatFloat(float64(f), 'e', 8, 32),
			strconv.FormatFloat(float64(f), 'e', 14, 32),
			strconv.FormatFloat(float64(f), 'e', 15, 32),
		} {
			if checkNumber(t, buf, s) {
				fast++
			}
			n++
		}
	}
	t.Logf("%d of %d literals on the fast path", fast, n)
}

// TestDigitRun holds the sixteen-byte digit scan to a byte loop with every
// byte value at every position of a run of digits.
func TestDigitRun(t *testing.T) {
	b := make([]byte, 16)
	for pos := range b {
		for c := range 256 {
			copy(b, "9876543210987654")
			b[pos] = byte(c)
			var want uint64
			n := 0
			for n < len(b) && b[n]-'0' <= 9 {
				want = want*10 + uint64(b[n]-'0')
				n++
			}
			if v, got := digitRun(b, 0); got != n || v != want {
				t.Fatalf("digitRun(%q) = %d, %d digits; want %d, %d", b, v, got, want, n)
			}
		}
	}
}
