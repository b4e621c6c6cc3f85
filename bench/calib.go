package bench

import "time"

// refCalibSeconds is the calibration loop's fastest time on the host the
// benchmark was built on (a 2-vCPU Intel Xeon VM) at its full speed.
// Host times are scaled by refCalibSeconds over the calibration time
// measured alongside them, so they read as seconds at that speed.
const refCalibSeconds = 0.0045

const (
	calibHeap  = 1 << 11
	calibKeys  = 1 << 14
	calibRing  = 1 << 18 // 1 MiB of uint32: larger than the L2 cache
	calibIters = 40000
)

// A calibrator times a fixed host workload shaped like the simulator's:
// event-heap sifts, map updates, dependent loads over a buffer larger
// than the L2 cache, and goroutine handoffs over unbuffered channels.
// It belongs to the benchmark, not the simulator, so a change to the
// simulator cannot change what it measures. Its working set is
// allocated once and a run allocates nothing, so the simulator's live
// heap and GC do not change its speed, and it adds nothing to the
// allocation metrics.
type calibrator struct {
	heap       []uint64
	table      map[uint64]uint64
	ring       []uint32 // one random cycle through every slot
	ping, pong chan uint64
	sink       uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		heap:  make([]uint64, 0, calibHeap+1),
		table: make(map[uint64]uint64, calibKeys),
		ring:  make([]uint32, calibRing),
		ping:  make(chan uint64),
		pong:  make(chan uint64),
	}
	for k := uint64(0); k < calibKeys; k++ {
		c.table[k] = 0
	}
	perm := make([]uint32, calibRing)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(perm) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		c.ring[perm[i]] = perm[(i+1)%len(perm)]
	}
	go c.echo()
	return c
}

// close stops the handoff goroutine and returns once it has exited.
func (c *calibrator) close() {
	c.ping <- 0
	<-c.pong
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// best is the fastest of three runs, in host seconds.
func (c *calibrator) best() float64 {
	t := c.run()
	for range 2 {
		t = min(t, c.run())
	}
	return t
}

// echo answers each ping until it is sent 0, which it answers and exits.
func (c *calibrator) echo() {
	for {
		v := <-c.ping
		c.pong <- v + 1
		if v == 0 {
			return
		}
	}
}

// run times one pass of the loop, in host seconds.
func (c *calibrator) run() float64 {
	start := time.Now()
	h := c.heap[:0]
	x := uint64(88172645463325252)
	var slot uint32
	for i := range calibIters {
		x = xorshift(x)
		h = append(h, x)
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		if len(h) > calibHeap {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			for j := 0; ; {
				l, r, s := 2*j+1, 2*j+2, j
				if l < len(h) && h[l] < h[s] {
					s = l
				}
				if r < len(h) && h[r] < h[s] {
					s = r
				}
				if s == j {
					break
				}
				h[s], h[j] = h[j], h[s]
				j = s
			}
		}
		c.table[x%calibKeys] += x
		for range 4 {
			slot = c.ring[slot]
		}
		c.sink += uint64(slot)
		if i%8 == 0 {
			c.ping <- x // xorshift never yields 0
			c.sink += <-c.pong
		}
	}
	return time.Since(start).Seconds()
}
