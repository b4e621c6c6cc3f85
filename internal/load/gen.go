package load

import (
	"math"
	"slices"

	"compmig/internal/sim"
)

// Kind is the operation class of one generated request.
type Kind int

// Operation kinds.
const (
	KindGet Kind = iota
	KindPut
	KindScan
)

// String names the kind for rendering.
func (k Kind) String() string {
	switch k {
	case KindGet:
		return "get"
	case KindPut:
		return "put"
	case KindScan:
		return "scan"
	}
	return "?"
}

// Op is one generated request.
type Op struct {
	Kind    Kind
	Key     uint64 // key index in [0, Keys)
	ScanLen int    // keys to cover, scans only
}

// Event is one open-loop arrival: the request and the simulated cycle
// it enters the system.
type Event struct {
	At sim.Time
	Op Op
}

// Gen generates the event stream for one spec. It draws from three
// forked PRNG streams — arrival gaps, key choice, operation mix — so
// changing one axis of the workload (say the mix) never perturbs the
// draws on another (the key sequence). The emitted stream is a pure
// function of (spec, seed).
type Gen struct {
	spec    *Spec
	arr     *sim.PRNG
	keyRng  *sim.PRNG
	mixRng  *sim.PRNG
	zipf    *zipfian
	keys    uint64
	hotStep uint64 // key positions the ranking rotates per hot period
	total   uint64
	emitted uint64
	now     sim.Time
}

// NewGen builds the generator. A spec Seed overrides the seed argument,
// letting a workload script pin its own stream independent of the run
// seed. spec may be nil (the default workload).
func NewGen(spec *Spec, seed uint64) *Gen {
	if spec != nil && spec.Seed != 0 {
		seed = spec.Seed
	}
	if seed == 0 {
		seed = 1
	}
	base := sim.NewPRNG(seed)
	g := &Gen{
		spec:   spec,
		arr:    base.Fork(),
		keyRng: base.Fork(),
		mixRng: base.Fork(),
		keys:   spec.keys(),
		total:  spec.ops(),
	}
	if theta := spec.theta(); theta > 0 {
		g.zipf = newZipfian(g.keys, theta)
	}
	if spec != nil && spec.HotPeriod > 0 {
		g.hotStep = uint64(spec.HotShift * float64(g.keys))
	}
	return g
}

// Remaining returns how many events Next will still emit.
func (g *Gen) Remaining() uint64 { return g.total - g.emitted }

// Next emits the next arrival event; ok is false once the spec's op
// count is exhausted. Every event consumes exactly one draw per stream
// (arrival, mix, key), keeping the sequences aligned across specs that
// differ on a single axis.
func (g *Gen) Next() (ev Event, ok bool) {
	if g.emitted >= g.total {
		return Event{}, false
	}
	g.emitted++

	// Arrival gap: exponential inter-arrival around the mean period,
	// floored at one cycle. A burst window divides the mean, multiplying
	// the arrival rate while the window covers the clock.
	mean := g.spec.period()
	if g.spec != nil && g.spec.BurstLen > 0 {
		if t := uint64(g.now); t >= g.spec.BurstStart && t < g.spec.BurstStart+g.spec.BurstLen {
			mean /= g.spec.BurstMult
		}
	}
	gap := sim.Time(-mean * math.Log(1-g.arr.Float64()))
	if gap < 1 {
		gap = 1
	}
	g.now += gap

	// Operation kind from the mix percentages.
	read, write, _ := g.spec.mixPcts()
	var kind Kind
	switch d := int(g.mixRng.Uint64n(100)); {
	case d < read:
		kind = KindGet
	case d < read+write:
		kind = KindPut
	default:
		kind = KindScan
	}

	// Key: a popularity rank (Zipfian or uniform), rotated by the moving
	// hotspot so which keys are popular changes over time while the
	// popularity *distribution* stays fixed.
	var rank uint64
	if g.zipf != nil {
		rank = g.zipf.next(g.keyRng)
	} else {
		rank = g.keyRng.Uint64n(g.keys)
	}
	key := rank
	if g.hotStep > 0 {
		shift := (uint64(g.now) / g.spec.HotPeriod) * g.hotStep
		key = (rank + shift%g.keys) % g.keys
	}

	op := Op{Kind: kind, Key: key}
	if kind == KindScan {
		op.ScanLen = g.spec.scanLen()
	}
	return Event{At: g.now, Op: op}, true
}

// Events materializes the whole stream into buf, reusing its array, and
// returns it. Drivers use this to schedule every arrival before the run
// starts (open loop: arrivals never depend on service progress), and
// keep buf from one run to the next.
func (g *Gen) Events(buf []Event) []Event {
	buf = slices.Grow(buf[:0], int(g.Remaining()))
	for {
		ev, ok := g.Next()
		if !ok {
			return buf
		}
		buf = append(buf, ev)
	}
}

// zipfian samples popularity ranks 0..n-1 with P(rank i) proportional to
// 1/(i+1)^theta — the standard YCSB construction: precompute the
// generalized harmonic number zeta(n, theta) once, then invert the CDF
// approximately per draw in O(1).
type zipfian struct {
	n     uint64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 0.5^theta, the rank-1 CDF step
}

func newZipfian(n uint64, theta float64) *zipfian {
	z := &zipfian{n: n}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.half = math.Pow(0.5, theta)
	z.alpha = 1 / (1 - theta)
	zeta2 := 1 + z.half
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipfian) next(r *sim.PRNG) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	rank := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}
