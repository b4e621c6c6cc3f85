package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"slices"
	"strings"
)

// A sample is one CPU profile sample: its call stack, innermost frame
// first, and the CPU nanoseconds it stands for.
type sample struct {
	stack []string
	ns    int64
}

// runtimeRules are attribution rules 1-4: a stack holding any frame
// whose name starts with one of a rule's prefixes goes to that rule's
// bucket, and the first matching rule wins. Scheduler frames are the
// cost of simulated-thread handoffs between goroutines.
var runtimeRules = []struct {
	bucket   string
	prefixes []string
}{
	{"host.rt_stack_s", []string{"runtime.newstack", "runtime.copystack", "runtime.morestack"}},
	{"host.rt_gc_s", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot"}},
	{"host.rt_alloc_s", []string{"runtime.mallocgc", "runtime.newobject", "runtime.growslice"}},
	{"host.rt_sched_s", []string{"runtime.chansend", "runtime.chanrecv", "runtime.gopark", "runtime.goready", "runtime.mcall", "runtime.park_m", "runtime.schedule"}},
}

// layers are the compmig/internal packages that rule 5 attributes to,
// by last path element. profile carries the traced run's own timers.
var layers = []string{
	"btree", "core", "countnet", "fault", "kv", "load", "mem", "msg",
	"network", "object", "policy", "profile", "repl", "sim", "stats", "store",
}

const otherBucket = "host.other_s"

// buckets returns every attribution bucket name, sorted.
func buckets() []string {
	var out []string
	for _, r := range runtimeRules {
		out = append(out, r.bucket)
	}
	for _, l := range layers {
		out = append(out, layerBucket(l))
	}
	out = append(out, otherBucket)
	slices.Sort(out)
	return out
}

func layerBucket(layer string) string { return "host." + layer + "_s" }

// attribute names the bucket a stack's CPU time belongs to. After the
// runtime rules, the sample goes to the innermost frame in one of the
// layer packages, so a runtime leaf such as memmove counts toward the
// package that called it; anything else is host.other_s.
func attribute(stack []string) string {
	for _, r := range runtimeRules {
		for _, fn := range stack {
			for _, p := range r.prefixes {
				if strings.HasPrefix(fn, p) {
					return r.bucket
				}
			}
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if !strings.HasPrefix(pkg, "compmig/internal/") {
			continue
		}
		base := path.Base(pkg)
		for _, l := range layers {
			if base == l {
				return layerBucket(l)
			}
		}
	}
	return otherBucket
}

// funcPackage returns the import path of a symbol name as the Go
// runtime prints it, e.g. "compmig/internal/sim" for
// "compmig/internal/sim.(*Engine).Run.func1". Type parameters in
// brackets may hold other paths, so they are cut off first.
func funcPackage(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attributeAll sums the samples' CPU seconds per bucket. Every bucket
// is present in the result.
func attributeAll(samples []sample) map[string]float64 {
	out := make(map[string]float64)
	for _, b := range buckets() {
		out[b] = 0
	}
	for _, s := range samples {
		out[attribute(s.stack)] += float64(s.ns) / 1e9
	}
	return out
}

var errTruncated = errors.New("profile: truncated protobuf")

// parseCPUProfile decodes a gzipped profile.proto as runtime/pprof
// writes it. It reads only what attribution needs: the sample types,
// each sample's location ids and values, the locations' inlined
// function ids, the function names and the string table.
func parseCPUProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		strs     []string
		types    []uint64 // sample_type[i].type as a string index
		raws     []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> name string index
	)
	err = fields(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(num, wire int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, wire, v, b)
				case 2:
					s.vals, err = appendUints(s.vals, wire, v, b)
				}
				return err
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		if cpu >= len(r.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		out = append(out, sample{stack: stack, ns: int64(r.vals[cpu])})
	}
	return out, nil
}

// fields calls fn for each field of one protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload.
func fields(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field's values, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
