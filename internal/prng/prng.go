// Package prng provides fast, deterministic pseudo-random number
// generation for the simulator. Every simulation in MicroLib must be
// exactly reproducible from a seed, so the package exposes explicit
// generator state (no global source) and stable algorithms
// (splitmix64 for seeding, xoshiro256** for the stream).
package prng

import "math/bits"

// Source is a xoshiro256** generator: its four state words, plain
// data that snapshots and restores by value and reproduces the stream
// bit-identically. The zero value is not a valid generator; use New
// or Seed.
type Source [4]uint64

// splitmix64 advances the given state and returns the next value. It
// is used to expand a single seed word into full generator state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed.
func New(seed uint64) *Source {
	var s Source
	s.Seed(seed)
	return &s
}

// Seed resets the generator state from a single seed word.
func (s *Source) Seed(seed uint64) {
	sm := seed
	for i := range s {
		s[i] = splitmix64(&sm)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any
	// seed cannot produce four zero words, but guard regardless.
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 1
	}
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Split derives an independent generator from this one. The derived
// stream is decorrelated from the parent by hashing a fresh draw.
func (s *Source) Split() *Source {
	seed := s.Uint64()
	return New(seed ^ 0xd2b74407b1ce6e93)
}

// SplitString derives an independent generator keyed by a string
// label, so that e.g. each benchmark gets a stable stream regardless
// of the order in which benchmarks are simulated.
func (s *Source) SplitString(label string) *Source {
	h := HashString(label)
	return New(s[0] ^ h)
}

// HashString is a 64-bit FNV-1a hash, exposed for stable keying.
func HashString(str string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= prime
	}
	return h
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n called with n == 0")
	}
	return s.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean
// approximately mean (support {1, 2, ...}), clamped to max.
func (s *Source) Geometric(mean float64, max int) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for n < max && !s.Bool(p) {
		n++
	}
	return n
}

// Zipf draws a value in [0, n) with a zipf-like skew: rank r has
// weight 1/(r+1)^theta. It uses rejection-free inverse-CDF over a
// precomputed table when n is small, and a quick approximation
// otherwise. For simulator workload modeling exactness is not needed,
// only stable, heavy-tailed skew.
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf builds a zipf sampler over [0, n) with exponent theta.
func NewZipf(src *Source, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("prng: NewZipf with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		w := 1 / powf(float64(i+1), theta)
		sum += w
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, src: src}
}

// Draw returns the next zipf-distributed rank.
func (z *Zipf) Draw() int {
	u := z.src.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// powf is a small positive-base power to avoid importing math just
// for this (and to keep behaviour identical across platforms: the
// loop form is exact for the integral exponents we mostly use).
func powf(base, exp float64) float64 {
	if exp == float64(int(exp)) && exp >= 0 && exp < 32 {
		r := 1.0
		for i := 0; i < int(exp); i++ {
			r *= base
		}
		return r
	}
	// Fallback: exp(log) via continued refinement. base > 0 always
	// here; this path only runs for fractional theta.
	return expf(exp * logf(base))
}

func logf(x float64) float64 {
	// Newton iterations on exp(y) = x starting from a rough guess.
	y := 0.0
	for x > 2 {
		x /= 2
		y += 0.6931471805599453
	}
	for x < 0.5 {
		x *= 2
		y -= 0.6931471805599453
	}
	z := x - 1
	// atanh-based series for log around 1.
	t := z / (2 + z)
	t2 := t * t
	sum := t
	term := t
	for k := 3; k < 30; k += 2 {
		term *= t2
		sum += term / float64(k)
	}
	return y + 2*sum
}

func expf(x float64) float64 {
	neg := x < 0
	if neg {
		x = -x
	}
	n := int(x / 0.6931471805599453)
	r := x - float64(n)*0.6931471805599453
	// Taylor for exp(r), r in [0, ln2).
	sum := 1.0
	term := 1.0
	for k := 1; k < 20; k++ {
		term *= r / float64(k)
		sum += term
	}
	for i := 0; i < n; i++ {
		sum *= 2
	}
	if neg {
		return 1 / sum
	}
	return sum
}
