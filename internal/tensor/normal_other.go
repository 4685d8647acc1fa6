//go:build !amd64

package tensor

// normAVX2 stays false off amd64, so NormFloat64s is the NormFloat64 loop
// and its values are NormFloat64's by construction, whatever math.Log
// compiles to.
var normAVX2 bool

// normPairs is unreachable off amd64: NormFloat64s calls it only with the
// AVX2 kernels.
func (r *RNG) normPairs(dst []float64) { panic("tensor: no bulk normal kernels off amd64") }
