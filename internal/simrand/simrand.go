// Package simrand provides deterministic pseudo-random number generation
// for the emulation and simulation substrates.
//
// Reproducibility is a first-class requirement of this repository: the
// paper this code reproduces is about reproducible experimentation, so
// every stochastic component must be replayable bit-for-bit from a seed.
// The standard library's math/rand is seedable but its stream-splitting
// story is weak; simrand provides named, independently seeded substreams
// so that adding a new consumer of randomness does not perturb existing
// ones.
//
// The core generator is xoshiro256**, seeded through splitmix64, the
// combination recommended by its authors. Both are implemented here from
// the public-domain reference algorithms.
package simrand

import (
	"math"
)

// splitmix64 advances a 64-bit state and returns the next output.
// It is used for seeding: it ensures that even nearly identical seeds
// (0, 1, 2, ...) produce uncorrelated xoshiro states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; derive one Source per goroutine via Substream.
//
// The zero value is not usable; construct with New or Substream.
type Source struct {
	s [4]uint64
	// spare holds a cached standard normal variate (Box-Muller
	// generates them in pairs).
	spare    float64
	hasSpare bool
}

// New returns a Source seeded from seed. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// A xoshiro state of all zeros is invalid (fixed point); splitmix64
	// cannot produce four zero outputs in a row, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Substream derives an independent child stream identified by name.
// The derivation hashes the name with FNV-1a into the child seed, so
// the same (parent seed, name) pair always yields the same stream and
// different names yield decorrelated streams.
func (s *Source) Substream(name string) *Source {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	// Mix the parent's current state so that substreams taken at
	// different points of the parent differ, while substreams taken
	// from a freshly seeded parent are reproducible.
	return New(h ^ s.s[0] ^ rotl(s.s[3], 17))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	carry := t >> 32
	t = aHi*bLo + carry
	mid1 := t & mask
	hi = t >> 32
	t = aLo*bHi + mid1
	lo |= (t & mask) << 32
	hi += t >> 32
	hi += aHi * bHi
	return hi, lo
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a normal variate with the given mean and standard
// deviation, using the Box-Muller transform.
func (s *Source) Normal(mean, stddev float64) float64 {
	if s.hasSpare {
		s.hasSpare = false
		return mean + stddev*s.spare
	}
	var u, v, r2 float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r2 = u*u + v*v
		if r2 > 0 && r2 < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r2) / r2)
	s.spare = v * f
	s.hasSpare = true
	return mean + stddev*u*f
}

// LogNormal returns a variate whose logarithm is Normal(mu, sigma).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exponential returns an exponential variate with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (s *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("simrand: Exponential called with rate <= 0")
	}
	// 1-Float64() is in (0, 1], so Log never sees zero.
	return -math.Log(1-s.Float64()) / rate
}

// Pareto returns a Pareto variate with minimum xm and shape alpha.
// Heavy-tailed variates model the long-tailed bandwidth distributions
// observed in the paper's Figure 5 (GCE 5-30 regime).
func (s *Source) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("simrand: Pareto requires xm > 0 and alpha > 0")
	}
	return xm / math.Pow(1-s.Float64(), 1/alpha)
}

// Gamma returns a gamma variate with the given shape and scale
// (mean shape*scale), using the Marsaglia-Tsang squeeze method built
// on Normal and Float64. Gamma-distributed inter-arrival gaps model
// bursty request streams whose coefficient of variation exceeds the
// Poisson CV of 1.
func (s *Source) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("simrand: Gamma requires shape > 0 and scale > 0")
	}
	if shape < 1 {
		// Boost: Gamma(k) = Gamma(k+1) * U^(1/k).
		u := 1 - s.Float64() // (0, 1], keeps Pow away from 0^inf
		return s.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = s.Normal(0, 1)
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := 1 - s.Float64() // (0, 1], Log never sees zero
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Weibull returns a Weibull variate with the given shape k and scale
// lambda, by inverting the CDF. Shape < 1 gives heavy-tailed gaps,
// shape > 1 gives regular (machine-like) gaps.
func (s *Source) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("simrand: Weibull requires shape > 0 and scale > 0")
	}
	// 1-Float64() is in (0, 1], so Log never sees zero.
	return scale * math.Pow(-math.Log(1-s.Float64()), 1/shape)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Perm returns a deterministic Fisher-Yates permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
