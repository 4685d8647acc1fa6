//go:build amd64

package tensor

import "math"

// normDraws is one block's accepted polar candidates in order: u, v and
// s = u²+v² of each pair. The slack of four lets normDraw4 store whole
// groups of four candidates past the block's last.
type normDraws struct{ u, v, s [normBlock + 4]float64 }

// normDraw4 draws polar candidates from state four at a time with AVX2
// (SplitMix64 and Float64's arithmetic on four lanes), packs the accepted
// ones (0 < s < 1) into u, v, s in draw order until n ≥ 1 are accepted, and
// returns how many candidates the serial rejection loop would have consumed
// for those n; n ≤ normBlock.
//
//go:noescape
func normDraw4(u, v, s *float64, n int, state uint64) (cands int)

// normScale4 writes u[i]·m, v[i]·m to dst[2i], dst[2i+1] with
// m = √(−2·ln s[i] / s[i]), for n pairs (n a multiple of 4); AVX2, no FMA.
// Its ln is math.archLog (log_amd64.s) operation for operation; every s[i]
// must be a normal float64 in (0, 1).
//
//go:noescape
func normScale4(dst, u, v, s *float64, n int)

// normLog4 writes ln x[i] to dst[i] for n values (n a multiple of 4) with
// normScale4's logarithm, so the tests can hold it to math.Log directly.
//
//go:noescape
func normLog4(dst, x *float64, n int)

// normAVX2 selects NormFloat64s' block path; init sets it where the CPU has
// AVX2 (the GEMM kernel's check), and without it NormFloat64s is the
// NormFloat64 loop.
var normAVX2 bool

func init() { normAVX2 = cpuHasAVX2FMA() }

// normPairs fills dst (even length ≤ 2·normBlock, no spare pending) with
// NormFloat64's next len(dst)/2 pairs and advances r past their draws. The
// pairs after the last group of four take NormFloat64's own transform.
func (r *RNG) normPairs(dst []float64) {
	n := len(dst) / 2
	var d normDraws
	c := normDraw4(&d.u[0], &d.v[0], &d.s[0], n, r.state)
	r.state += uint64(2*c) * splitmixGamma // two draws per candidate
	k := n &^ 3
	if k > 0 {
		normScale4(&dst[0], &d.u[0], &d.v[0], &d.s[0], k)
	}
	for i := k; i < n; i++ {
		u, v, s := d.u[i], d.v[i], d.s[i]
		m := math.Sqrt(-2 * math.Log(s) / s)
		dst[2*i], dst[2*i+1] = u*m, v*m
	}
}
