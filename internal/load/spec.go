// Package load is a deterministic open-loop workload generator for the
// serving apps: seeded Zipfian key popularity with a moving hotspot,
// flash-crowd bursts, and a read/write/scan operation mix, emitted as a
// stream of arrival events timestamped in simulated cycles. Open-loop
// means arrivals do not wait for completions — the generator decides
// when requests arrive, and a slow server builds queueing delay instead
// of throttling the offered load, which is what exposes tail latency.
//
// All randomness comes from forked sim.PRNG streams (one per decision
// axis: arrival gaps, key choice, operation mix), so the sequence for a
// given (spec, seed) is a pure function — the determinism contract the
// rest of the simulator keeps.
package load

import (
	"fmt"
	"strconv"
	"strings"
)

// Limits keep a parsed spec cheap to instantiate: the Zipfian sampler
// precomputes an O(Keys) normalization constant, and drivers materialize
// the full event list up front.
const (
	// MaxKeys bounds the key population.
	MaxKeys = 1 << 22
	// MaxOps bounds the number of generated events.
	MaxOps = 1 << 24
)

// Defaults applied when the spec leaves a field zero.
const (
	// DefaultKeys is the key-population size.
	DefaultKeys = 1024
	// DefaultOps is the number of generated arrival events.
	DefaultOps = 2000
	// DefaultPeriod is the mean inter-arrival gap in cycles.
	DefaultPeriod = 500
	// DefaultScanLen is the range-scan length in keys.
	DefaultScanLen = 16
	// DefaultReadPct/DefaultWritePct is the operation mix when the spec
	// sets none (no scans by default — scans need an app with an index).
	DefaultReadPct  = 90
	DefaultWritePct = 10
)

// Spec describes one open-loop workload. The zero Spec (and a nil *Spec)
// is a valid default workload: uniform key popularity, the default mix,
// no hotspot, no burst. Fields left zero take the package defaults.
type Spec struct {
	Keys   uint64  // key-population size (default DefaultKeys)
	Ops    uint64  // number of arrival events (default DefaultOps)
	Period float64 // mean inter-arrival gap in cycles (default DefaultPeriod)
	Theta  float64 // Zipfian skew in [0,1); 0 means uniform

	// ReadPct/WritePct/ScanPct set the operation mix in percent; they
	// must sum to 100 when any is set. All zero means the default mix.
	ReadPct, WritePct, ScanPct int
	ScanLen                    int // keys per scan (default DefaultScanLen)

	// HotShift/HotPeriod make the popularity ranking rotate: every
	// HotPeriod cycles the whole ranking shifts by floor(HotShift*Keys)
	// key positions, so yesterday's hot keys go cold. Zero HotPeriod
	// disables the hotspot.
	HotShift  float64
	HotPeriod uint64

	// BurstMult/BurstStart/BurstLen inject one flash crowd: inside
	// [BurstStart, BurstStart+BurstLen) the mean inter-arrival gap is
	// divided by BurstMult. Zero BurstLen disables the burst.
	BurstMult  float64
	BurstStart uint64
	BurstLen   uint64

	// Seed overrides the generator seed the driver passes; 0 defers.
	Seed uint64
}

func (s *Spec) keys() uint64 {
	if s == nil || s.Keys == 0 {
		return DefaultKeys
	}
	return s.Keys
}

func (s *Spec) ops() uint64 {
	if s == nil || s.Ops == 0 {
		return DefaultOps
	}
	return s.Ops
}

func (s *Spec) period() float64 {
	if s == nil || s.Period == 0 {
		return DefaultPeriod
	}
	return s.Period
}

func (s *Spec) scanLen() int {
	if s == nil || s.ScanLen == 0 {
		return DefaultScanLen
	}
	return s.ScanLen
}

func (s *Spec) theta() float64 {
	if s == nil {
		return 0
	}
	return s.Theta
}

// NumKeys returns the effective key-population size (defaults applied).
// Drivers size their stores from it.
func (s *Spec) NumKeys() uint64 { return s.keys() }

// mixPcts returns the effective read/write/scan percentages.
func (s *Spec) mixPcts() (read, write, scan int) {
	if s == nil || s.ReadPct+s.WritePct+s.ScanPct == 0 {
		return DefaultReadPct, DefaultWritePct, 0
	}
	return s.ReadPct, s.WritePct, s.ScanPct
}

// String renders the spec in the grammar ParseSpec accepts. Only fields
// that differ from the defaults appear, so String of a zero spec is ""
// (which re-parses to a nil spec — the same workload).
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	addU := func(k string, v uint64) {
		if v != 0 {
			parts = append(parts, k+"="+strconv.FormatUint(v, 10))
		}
	}
	addU("keys", s.Keys)
	addU("ops", s.Ops)
	if s.Period != 0 {
		parts = append(parts, "period="+fmtF(s.Period))
	}
	if s.Theta != 0 {
		parts = append(parts, "zipf="+fmtF(s.Theta))
	}
	if s.ReadPct+s.WritePct+s.ScanPct != 0 {
		parts = append(parts, fmt.Sprintf("mix=%d:%d:%d", s.ReadPct, s.WritePct, s.ScanPct))
	}
	if s.ScanLen != 0 {
		parts = append(parts, fmt.Sprintf("scan=%d", s.ScanLen))
	}
	if s.HotPeriod != 0 {
		parts = append(parts, fmt.Sprintf("hot=%s:%d", fmtF(s.HotShift), s.HotPeriod))
	}
	if s.BurstLen != 0 {
		parts = append(parts, fmt.Sprintf("burst=%s:%d:%d", fmtF(s.BurstMult), s.BurstStart, s.BurstLen))
	}
	addU("seed", s.Seed)
	return strings.Join(parts, ",")
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseSpec parses a comma-separated workload spec, e.g.
//
//	keys=4096,ops=5000,period=300,zipf=0.99,mix=70:25:5,hot=0.25:100000,burst=4:200000:50000
//
// Keys: keys, ops, period (mean inter-arrival cycles), zipf (skew theta
// in [0,1)), mix=READ:WRITE:SCAN (percentages summing to 100),
// scan (keys per scan), hot=SHIFT:PERIOD (ranking rotation: fraction of
// the key space per PERIOD cycles), burst=MULT:START:LEN (flash crowd:
// arrival rate times MULT inside the window), seed. An empty string
// parses to a nil spec (the default workload).
func ParseSpec(text string) (*Spec, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil, nil
	}
	s := &Spec{}
	for _, tok := range strings.Split(text, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok || val == "" {
			return nil, fmt.Errorf("load: malformed token %q (want key=value)", tok)
		}
		switch key {
		case "keys":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n < 1 || n > MaxKeys {
				return nil, fmt.Errorf("load: keys wants an integer in [1,%d], got %q", MaxKeys, val)
			}
			s.Keys = n
		case "ops":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n < 1 || n > MaxOps {
				return nil, fmt.Errorf("load: ops wants an integer in [1,%d], got %q", MaxOps, val)
			}
			s.Ops = n
		case "period":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !(p >= 1) || p > 1e12 {
				return nil, fmt.Errorf("load: period wants mean inter-arrival cycles >= 1, got %q", val)
			}
			s.Period = p
		case "zipf":
			t, err := strconv.ParseFloat(val, 64)
			if err != nil || !(t >= 0) || t >= 1 {
				return nil, fmt.Errorf("load: zipf wants a skew theta in [0,1), got %q", val)
			}
			s.Theta = t
		case "mix":
			f := strings.Split(val, ":")
			pcts := make([]int, len(f))
			sum, bad := 0, len(f) != 3
			for i, part := range f {
				if bad {
					break
				}
				n, err := strconv.Atoi(part)
				if err != nil || n < 0 {
					bad = true
					break
				}
				pcts[i], sum = n, sum+n
			}
			if bad || sum != 100 {
				return nil, fmt.Errorf("load: mix wants READ:WRITE:SCAN percentages summing to 100, got %q", val)
			}
			s.ReadPct, s.WritePct, s.ScanPct = pcts[0], pcts[1], pcts[2]
		case "scan":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 || n > 1<<16 {
				return nil, fmt.Errorf("load: scan wants a length in [1,%d], got %q", 1<<16, val)
			}
			s.ScanLen = n
		case "hot":
			shiftStr, perStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("load: hot wants SHIFT:PERIOD, got %q", val)
			}
			shift, err1 := strconv.ParseFloat(shiftStr, 64)
			per, err2 := strconv.ParseUint(perStr, 10, 64)
			if err1 != nil || err2 != nil || !(shift > 0) || shift > 1 || per == 0 {
				return nil, fmt.Errorf("load: hot wants SHIFT in (0,1] and PERIOD cycles > 0, got %q", val)
			}
			s.HotShift, s.HotPeriod = shift, per
		case "burst":
			f := strings.SplitN(val, ":", 3)
			if len(f) != 3 {
				return nil, fmt.Errorf("load: burst wants MULT:START:LEN, got %q", val)
			}
			mult, err1 := strconv.ParseFloat(f[0], 64)
			start, err2 := strconv.ParseUint(f[1], 10, 64)
			length, err3 := strconv.ParseUint(f[2], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil || !(mult > 1) || mult > 1e6 || length == 0 {
				return nil, fmt.Errorf("load: burst wants MULT > 1 and LEN > 0, got %q", val)
			}
			s.BurstMult, s.BurstStart, s.BurstLen = mult, start, length
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("load: seed wants a positive integer, got %q", val)
			}
			s.Seed = n
		default:
			return nil, fmt.Errorf("load: unknown key %q (want keys, ops, period, zipf, mix, scan, hot, burst, seed)", key)
		}
	}
	return s, nil
}
