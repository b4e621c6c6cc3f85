package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"compmig/internal/sim"
)

// protoMsg builds a protobuf message field by field.
type protoMsg []byte

func (m protoMsg) varint(num int, v uint64) protoMsg {
	m = binary.AppendUvarint(m, uint64(num)<<3)
	return binary.AppendUvarint(m, v)
}

func (m protoMsg) bytes(num int, b []byte) protoMsg {
	m = binary.AppendUvarint(m, uint64(num)<<3|2)
	m = binary.AppendUvarint(m, uint64(len(b)))
	return append(m, b...)
}

func (m protoMsg) packed(num int, vs ...uint64) protoMsg {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return m.bytes(num, b)
}

// profileCase is one hand-built sample: its locations, innermost first,
// each listing its inlined functions innermost first.
type profileCase struct {
	locs [][]string
	ns   uint64
	want string
}

var profileCases = []profileCase{
	{[][]string{{"runtime.copystack"}, {"runtime.newstack"}, {"runtime.morestack"}, {"compmig/internal/core.(*Task).Call"}}, 1e6, "host.rt_stack_s"},
	{[][]string{{"runtime.mallocgc"}, {"runtime.newstack"}}, 2e6, "host.rt_stack_s"},
	{[][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker.func2"}}, 3e6, "host.rt_gc_s"},
	{[][]string{{"runtime.gcAssistAlloc1"}, {"runtime.mallocgc"}, {"compmig/internal/sim.(*Engine).Schedule"}}, 4e6, "host.rt_gc_s"},
	{[][]string{{"runtime.memclrNoHeapPointers"}, {"runtime.mallocgc"}, {"runtime.newobject"}, {"compmig/internal/network.(*Network).Send"}}, 5e6, "host.rt_alloc_s"},
	{[][]string{{"runtime.futex"}, {"runtime.schedule"}, {"runtime.park_m"}, {"runtime.mcall"}}, 6e6, "host.rt_sched_s"},
	{[][]string{{"runtime.chanrecv"}, {"runtime.chanrecv1"}, {"compmig/internal/sim.(*Thread).park"}}, 7e6, "host.rt_sched_s"},
	// A runtime leaf under a compmig caller counts toward the caller.
	{[][]string{{"runtime.memmove"}, {"compmig/internal/mem.(*System).access"}, {"compmig/internal/sim.(*Engine).Run"}}, 8e6, "host.mem_s"},
	// A package outside the layer list passes to its caller's layer.
	{[][]string{{"compmig/internal/gid.Pack"}, {"compmig/internal/core.(*Runtime).send"}}, 9e6, "host.core_s"},
	// Inlined frames share a location, innermost first.
	{[][]string{{"compmig/internal/stats.(*Histogram).Observe", "compmig/internal/stats.(*Collector).CountOp"}, {"compmig/internal/apps/kv.RunExperiment.func1"}}, 10e6, "host.stats_s"},
	{[][]string{{"compmig/internal/apps/btree.(*Tree).Lookup"}}, 11e6, "host.btree_s"},
	{[][]string{{"compmig/internal/sim.heapPush[go.shape.*compmig/internal/mem.line]"}}, 12e6, "host.sim_s"},
	{[][]string{{"main.main"}, {"runtime.main"}}, 13e6, "host.other_s"},
}

// buildProfile encodes cases as a gzipped profile.proto with the two
// sample types runtime/pprof writes for CPU profiles.
func buildProfile(t *testing.T, cases []profileCase) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIndex := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIndex[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIndex[s] = uint64(len(strs) - 1)
		return strIndex[s]
	}
	var p protoMsg
	p = p.bytes(1, protoMsg(nil).varint(1, 1).varint(2, 2))
	p = p.bytes(1, protoMsg(nil).varint(1, 3).varint(2, 4))
	funcIDs := map[string]uint64{}
	var locID uint64
	for i, c := range cases {
		var ids []uint64
		for _, loc := range c.locs {
			locID++
			l := protoMsg(nil).varint(1, locID)
			for _, fn := range loc {
				id, ok := funcIDs[fn]
				if !ok {
					id = uint64(len(funcIDs) + 1)
					funcIDs[fn] = id
					p = p.bytes(5, protoMsg(nil).varint(1, id).varint(2, intern(fn)))
				}
				l = l.bytes(4, protoMsg(nil).varint(1, id).varint(2, 10))
			}
			p = p.bytes(4, l)
			ids = append(ids, locID)
		}
		s := protoMsg(nil)
		if i == 0 {
			// Unpacked repeated fields are legal too.
			for _, id := range ids {
				s = s.varint(1, id)
			}
		} else {
			s = s.packed(1, ids...)
		}
		p = p.bytes(2, s.packed(2, 1, c.ns))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeAndAttributeHandBuiltProfile(t *testing.T) {
	samples, err := parseCPUProfile(buildProfile(t, profileCases))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(profileCases) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(profileCases))
	}
	want := map[string]float64{}
	for _, b := range buckets() {
		want[b] = 0
	}
	for i, c := range profileCases {
		var stack []string
		for _, loc := range c.locs {
			stack = append(stack, loc...)
		}
		s := samples[i]
		if !reflect.DeepEqual(s.stack, stack) || s.ns != int64(c.ns) {
			t.Errorf("sample %d decoded as %v/%d, want %v/%d", i, s.stack, s.ns, stack, c.ns)
		}
		if got := attribute(s.stack); got != c.want {
			t.Errorf("sample %d %v: bucket %s, want %s", i, stack, got, c.want)
		}
		want[c.want] += float64(c.ns) / 1e9
	}
	if got := attributeAll(samples); !reflect.DeepEqual(got, want) {
		t.Errorf("attributeAll = %v, want %v", got, want)
	}
}

func TestDecodeRejectsTruncatedProfile(t *testing.T) {
	raw := buildProfile(t, profileCases)
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if _, err := plain.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(plain.Bytes()[:plain.Len()-3])
	zw.Close()
	if _, err := parseCPUProfile(buf.Bytes()); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// TestProfileAttributesEngineTime profiles a real engine run through
// runtime/pprof and the decoder: the event heap's time lands in sim.
func TestProfileAttributesEngineTime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		eng := sim.NewEngine(1)
		n := 0
		var tick func()
		tick = func() {
			if n++; n < 50000 {
				eng.Schedule(sim.Time(n%97), tick)
			}
		}
		for i := range 64 {
			eng.Schedule(sim.Time(i), tick)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	host := attributeAll(samples)
	if host["host.sim_s"] <= 0 {
		t.Errorf("host.sim_s = %v over %d samples, want > 0 (%v)", host["host.sim_s"], len(samples), host)
	}
}
