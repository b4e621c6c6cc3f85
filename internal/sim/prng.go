package sim

// PRNG is a small deterministic pseudo-random generator (xoshiro256**)
// seeded explicitly so that every experiment is reproducible bit-for-bit.
// We avoid math/rand so the stream is stable across Go releases.
type PRNG struct {
	s [4]uint64
}

// NewPRNG returns a generator seeded from seed via splitmix64, which also
// handles the all-zero-state hazard.
func NewPRNG(seed uint64) *PRNG {
	p := &PRNG{}
	x := seed
	for i := range p.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		p.s[i] = z ^ (z >> 31)
	}
	return p
}

// State returns the generator's internal state. Two generators with
// equal state produce identical streams; callers use this to memoize
// derived values (e.g. generated workloads) keyed by the exact stream.
func (p *PRNG) State() [4]uint64 { return p.s }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (p *PRNG) Uint64() uint64 {
	result := rotl(p.s[1]*5, 7) * 9
	t := p.s[1] << 17
	p.s[2] ^= p.s[0]
	p.s[3] ^= p.s[1]
	p.s[1] ^= p.s[2]
	p.s[0] ^= p.s[3]
	p.s[2] ^= t
	p.s[3] = rotl(p.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(p.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (p *PRNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return p.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (p *PRNG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Fork derives an independent generator from this one, so subsystems can
// own private streams without perturbing each other's sequences.
func (p *PRNG) Fork() *PRNG { return NewPRNG(p.Uint64()) }
