package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator (SplitMix64)
// used for weight initialization and data synthesis. It is deliberately
// independent of math/rand so that results are stable across Go releases,
// which keeps golden-value tests and reproduced experiment tables stable.
type RNG struct {
	state uint64
	// cached spare normal deviate for the Box–Muller transform
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// splitmixGamma is SplitMix64's state increment.
const splitmixGamma = 0x9E3779B97F4A7C15

// Uint64 advances the generator and returns 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += splitmixGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal deviate via Box–Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// normBlock is the most pairs NormFloat64s draws before it transforms them,
// so that a block's candidates stay in L1.
const normBlock = 256

// NormFloat64s fills dst with exactly the values len(dst) successive
// NormFloat64 calls would return, and leaves r in exactly the state those
// calls leave, the pending spare included, so whichever fills a buffer,
// every weight, pin and reference drawn from r is the same. With the AVX2
// kernels (amd64) the pairs are made a block at a time, the block's polar
// candidates drawn and transformed four at a time (normPairs); elsewhere it
// is the NormFloat64 loop itself.
func (r *RNG) NormFloat64s(dst []float64) {
	if !normAVX2 {
		for i := range dst {
			dst[i] = r.NormFloat64()
		}
		return
	}
	if len(dst) > 0 && r.hasSpare {
		dst[0], r.hasSpare = r.spare, false
		dst = dst[1:]
	}
	for len(dst) >= 2 {
		n := min(len(dst)/2, normBlock)
		r.normPairs(dst[:2*n])
		dst = dst[2*n:]
	}
	if len(dst) == 1 {
		dst[0] = r.NormFloat64() // leaves the pair's spare pending
	}
}

// Uniform returns a value uniform in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Perm returns a random permutation of [0, n) via Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// RandNormal fills a new tensor with N(0, std²) values.
func RandNormal(r *RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	var buf [2 * normBlock]float64
	for d := t.data; len(d) > 0; {
		n := min(len(d), len(buf))
		r.NormFloat64s(buf[:n])
		for i, x := range buf[:n] {
			d[i] = float32(x * std)
		}
		d = d[n:]
	}
	return t
}

// RandUniform fills a new tensor with values uniform in [lo, hi).
func RandUniform(r *RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(r.Uniform(lo, hi))
	}
	return t
}
