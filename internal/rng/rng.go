// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by every simulation component in this repository.
//
// All experiments in the paper reproduction must be exactly repeatable from
// a single seed, including when sub-components (transmitters, channel,
// front-end) draw random numbers in different orders. The generator is
// xoshiro256**, seeded through SplitMix64, following the reference
// implementation by Blackman and Vigna. Each component should derive its own
// stream with Split so that adding a random draw in one component does not
// perturb the sequence seen by another.
package rng

import "math"

// Rand is a xoshiro256** pseudo-random number generator. The zero value is
// not usable; construct with New.
type Rand struct {
	s [4]uint64
	// cached Gaussian value for the polar method.
	gauss    float64
	hasGauss bool
}

// splitMix64 advances the given state and returns the next SplitMix64 output.
// It is used only for seeding.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed. Distinct seeds
// yield (with overwhelming probability) non-overlapping streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent generator from r. The derived stream is a
// deterministic function of r's current state and the label, so components
// can be given stable streams by labeling them.
func (r *Rand) Split(label uint64) *Rand {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns a fair coin flip.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Byte returns a uniformly random byte.
func (r *Rand) Byte() byte { return byte(r.Uint64()) }

// Bytes fills p with uniformly random bytes.
func (r *Rand) Bytes(p []byte) {
	for i := range p {
		p[i] = byte(r.Uint64())
	}
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method. It caches the second value of each generated pair.
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Complex returns a circularly symmetric complex Gaussian sample with unit
// variance (0.5 per real dimension), the standard model for complex AWGN.
func (r *Rand) Complex() complex128 {
	const invSqrt2 = 0.7071067811865476
	return complex(r.NormFloat64()*invSqrt2, r.NormFloat64()*invSqrt2)
}

// ExpFloat64 returns an exponentially distributed variate with rate 1,
// used for Poisson arrival processes in the traffic generator.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
