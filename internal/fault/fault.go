// Package fault is a deterministic, seed-driven fault plan for the
// simulated machine: message drop, duplication, reorder (modeled as
// jitter that lets later messages overtake), delay jitter, and
// per-processor crash/pause windows. The injector draws from its own
// PRNG stream, so a fault plan never perturbs the engine's stream — a
// run with an all-zero plan is byte-identical to one with no plan at
// all, and two runs with the same plan and seed are identical.
//
// The network's reliability layer (internal/network, attached via
// AttachFaults) consults the injector per transmission and implements
// at-most-once delivery on top: sequence-numbered framing, receiver
// acks with duplicate suppression keyed by (source, sequence), and
// sender retransmission under a capped exponential backoff that ends in
// a typed GiveUpError after MaxAttempts transmissions.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"compmig/internal/profile"
	"compmig/internal/sim"
)

// Defaults for the recovery protocol when the spec leaves them zero.
const (
	// DefaultRTO is the initial retransmission timeout in cycles — a few
	// times the software-model round trip, so a lightly loaded machine
	// never retransmits spuriously.
	DefaultRTO = 4000
	// DefaultRTOMax caps the exponential backoff.
	DefaultRTOMax = 32000
	// DefaultMaxAttempts bounds total transmissions of one message. At a
	// 5% drop rate the chance of losing all ten attempts (message or its
	// ack) is under 1e-10, so give-ups are test artifacts, not noise.
	DefaultMaxAttempts = 10
)

// Window is one scheduled processor outage. A crash window drops every
// message delivered to the processor inside it (senders recover by
// retransmitting past the window); a pause window holds deliveries and
// releases them when the window closes. Both kinds also stall work
// segments booked on the processor (see sim.Proc down windows). A wipe
// window is a crash that additionally discards the processor's volatile
// state at the window start — location-hint caches, in-flight
// activations, and any object state not yet persisted — forcing the
// durable store (internal/store) to rebuild it from checkpoint + WAL.
type Window struct {
	Proc  int
	Start uint64
	Dur   uint64
	Pause bool // false = crash-restart, true = pause
	Wipe  bool // crash that loses volatile state (implies !Pause)
}

// End returns the first cycle after the outage.
func (w Window) End() uint64 { return w.Start + w.Dur }

// Spec is a parsed fault plan. The zero Spec (and a nil *Spec) injects
// nothing; see Enabled.
type Spec struct {
	Drop    float64 // per-transmission loss probability
	Dup     float64 // per-transmission duplication probability
	Reorder float64 // probability of overtaking jitter on a delivery
	// DelayMin/DelayMax bound a uniform per-delivery jitter in cycles.
	DelayMin, DelayMax uint64
	Windows            []Window
	// Seed seeds the injector's private PRNG stream; 0 means 1.
	Seed uint64

	// Recovery-protocol knobs; zero means the package default.
	RTO         uint64
	RTOMax      uint64
	MaxAttempts int

	// Ckpt is the durable store's checkpoint interval in cycles; zero
	// means cost.DefaultCkptInterval. It only matters when the run is
	// durable (a wipe window is present or the app forces -durable); a
	// ckpt-only spec injects nothing and leaves Enabled() false.
	Ckpt uint64
}

// HasWipe reports whether any window is a loss-inducing wipe. Apps use
// it to auto-enable the durable store: a wipe without a WAL would lose
// acknowledged state.
func (s *Spec) HasWipe() bool {
	if s == nil {
		return false
	}
	for _, w := range s.Windows {
		if w.Wipe {
			return true
		}
	}
	return false
}

// Enabled reports whether the plan can inject any fault at all. A
// disabled plan must not be attached to a network: the reliability
// framing itself (sequence words, acks) changes wire charges, so the
// byte-identity contract for fault-free runs is "no injector attached".
// CkptInterval returns the checkpoint interval the spec requests, in
// cycles. Zero (including a nil spec) means the store's default.
func (s *Spec) CkptInterval() uint64 {
	if s == nil {
		return 0
	}
	return s.Ckpt
}

func (s *Spec) Enabled() bool {
	if s == nil {
		return false
	}
	return s.Drop > 0 || s.Dup > 0 || s.Reorder > 0 || s.DelayMax > 0 || len(s.Windows) > 0
}

func (s *Spec) seed() uint64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

func (s *Spec) rto() uint64 {
	if s.RTO == 0 {
		return DefaultRTO
	}
	return s.RTO
}

func (s *Spec) rtoMax() uint64 {
	if s.RTOMax == 0 {
		return DefaultRTOMax
	}
	return s.RTOMax
}

func (s *Spec) maxAttempts() int {
	if s.MaxAttempts == 0 {
		return DefaultMaxAttempts
	}
	return s.MaxAttempts
}

// String renders the spec in the grammar ParseSpec accepts.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("drop", s.Drop)
	add("dup", s.Dup)
	add("reorder", s.Reorder)
	if s.DelayMax > 0 || s.DelayMin > 0 {
		parts = append(parts, fmt.Sprintf("delay=%d:%d", s.DelayMin, s.DelayMax))
	}
	for _, w := range s.Windows {
		kind := "crash"
		switch {
		case w.Pause:
			kind = "pause"
		case w.Wipe:
			kind = "wipe"
		}
		parts = append(parts, fmt.Sprintf("%s=p%d@%d+%d", kind, w.Proc, w.Start, w.Dur))
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	if s.RTO != 0 {
		parts = append(parts, fmt.Sprintf("rto=%d", s.RTO))
	}
	if s.RTOMax != 0 {
		parts = append(parts, fmt.Sprintf("rtomax=%d", s.RTOMax))
	}
	if s.MaxAttempts != 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", s.MaxAttempts))
	}
	if s.Ckpt != 0 {
		parts = append(parts, fmt.Sprintf("ckpt=%d", s.Ckpt))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated fault plan, e.g.
//
//	drop=0.01,dup=0.005,delay=0:40,crash=p3@50000+20000,seed=7
//
// Keys: drop/dup/reorder (probabilities in [0,1]), delay=MIN:MAX
// (uniform jitter in cycles), crash=pN@START+DUR, pause=pN@START+DUR
// and wipe=pN@START+DUR (repeatable outage windows; wipe is a crash
// that loses the processor's volatile state), seed, rto, rtomax,
// retries, ckpt=N (durable-store checkpoint interval in cycles). An
// empty string parses to a nil spec (no faults).
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
			return nil, fmt.Errorf("fault: malformed token %q (want key=value)", tok)
		}
		switch key {
		case "drop", "dup", "reorder":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("fault: %s wants a probability in [0,1], got %q", key, val)
			}
			switch key {
			case "drop":
				s.Drop = p
			case "dup":
				s.Dup = p
			case "reorder":
				s.Reorder = p
			}
		case "delay":
			lo, hi, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("fault: delay wants MIN:MAX cycles, got %q", val)
			}
			min, err1 := strconv.ParseUint(lo, 10, 64)
			max, err2 := strconv.ParseUint(hi, 10, 64)
			if err1 != nil || err2 != nil || min > max {
				return nil, fmt.Errorf("fault: delay wants MIN:MAX with MIN <= MAX, got %q", val)
			}
			s.DelayMin, s.DelayMax = min, max
		case "crash", "pause", "wipe":
			w, err := parseWindow(val)
			if err != nil {
				return nil, err
			}
			w.Pause = key == "pause"
			w.Wipe = key == "wipe"
			s.Windows = append(s.Windows, w)
		case "seed", "rto", "rtomax", "ckpt":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || (key != "seed" && n == 0) {
				return nil, fmt.Errorf("fault: %s wants a positive integer, got %q", key, val)
			}
			switch key {
			case "seed":
				s.Seed = n
			case "rto":
				s.RTO = n
			case "rtomax":
				s.RTOMax = n
			case "ckpt":
				s.Ckpt = n
			}
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 || n > 1<<20 {
				return nil, fmt.Errorf("fault: retries wants a positive attempt count, got %q", val)
			}
			s.MaxAttempts = n
		default:
			return nil, fmt.Errorf("fault: unknown key %q (want drop, dup, reorder, delay, crash, pause, wipe, seed, rto, rtomax, retries, ckpt)", key)
		}
	}
	if s.RTOMax != 0 && s.RTOMax < s.rto() {
		return nil, fmt.Errorf("fault: rtomax %d below rto %d", s.RTOMax, s.rto())
	}
	return s, nil
}

// parseWindow parses "pN@START+DUR".
func parseWindow(val string) (Window, error) {
	fail := func() (Window, error) {
		return Window{}, fmt.Errorf("fault: outage window wants pN@START+DUR, got %q", val)
	}
	if !strings.HasPrefix(val, "p") {
		return fail()
	}
	procStr, rest, ok := strings.Cut(val[1:], "@")
	if !ok {
		return fail()
	}
	startStr, durStr, ok := strings.Cut(rest, "+")
	if !ok {
		return fail()
	}
	proc, err1 := strconv.Atoi(procStr)
	start, err2 := strconv.ParseUint(startStr, 10, 64)
	dur, err3 := strconv.ParseUint(durStr, 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || proc < 0 || dur == 0 {
		return fail()
	}
	return Window{Proc: proc, Start: start, Dur: dur}, nil
}

// GiveUpError reports that the reliability layer exhausted its
// retransmission budget for one message.
type GiveUpError struct {
	Kind     string
	Src, Dst int
	Attempts int
}

func (e *GiveUpError) Error() string {
	return fmt.Sprintf("fault: gave up on %s p%d->p%d after %d attempts",
		e.Kind, e.Src, e.Dst, e.Attempts)
}

// Counters tallies injected faults and recovery-protocol activity for
// one run. Plain integers: a run is single-goroutine.
type Counters struct {
	Dropped       uint64 // transmissions lost on the wire
	Duplicated    uint64 // transmissions delivered twice
	Delayed       uint64 // deliveries that drew nonzero jitter
	Reordered     uint64 // deliveries given overtaking jitter
	CrashDropped  uint64 // deliveries into a crash window
	PauseDelayed  uint64 // deliveries held by a pause window
	Retransmits   uint64 // sender retransmissions
	Timeouts      uint64 // retransmission timer firings
	DupSuppressed uint64 // receiver-side duplicate deliveries discarded
	Acks          uint64 // acks sent
	AckDropped    uint64 // acks lost on the wire
	GiveUps       uint64 // messages abandoned after MaxAttempts
	LateReplies   uint64 // replies for already-settled reply slots
}

// Verdict is the injector's decision for one transmission.
type Verdict struct {
	Drop     bool
	Dup      bool
	Delay    uint64 // extra delivery delay for the message
	DupDelay uint64 // extra delay for the duplicate copy (valid when Dup)
}

type scriptOp int

const (
	opDrop scriptOp = iota
	opDup
)

type scriptAct struct {
	nth int // 1-based transmission index within the kind
	op  scriptOp
}

// Injector turns a Spec into per-transmission verdicts. It owns a
// private PRNG stream (never the engine's), so attaching one changes no
// draw any other component makes. One injector serves one run; the
// harness worker pool runs many runs concurrently, each with its own.
type Injector struct {
	spec     Spec
	rng      *sim.PRNG
	Counters Counters

	// scripts target the nth transmission of a message kind — test
	// hooks for deterministic single-fault scenarios.
	scripts map[string][]scriptAct
	sent    map[string]int
}

// NewInjector builds an injector for the plan. Callers gate attachment
// on Spec.Enabled(); NewInjector itself accepts any spec so tests can
// build script-only injectors from a zero plan.
func NewInjector(s *Spec) *Injector {
	if s == nil {
		s = &Spec{}
	}
	return &Injector{spec: *s, rng: sim.NewPRNG(s.seed())}
}

// RTOInitial returns the initial retransmission timeout in cycles.
func (i *Injector) RTOInitial() uint64 { return i.spec.rto() }

// RTOMax returns the backoff cap in cycles.
func (i *Injector) RTOMax() uint64 { return i.spec.rtoMax() }

// MaxAttempts returns the transmission budget per message.
func (i *Injector) MaxAttempts() int { return i.spec.maxAttempts() }

// Windows returns the plan's outage windows.
func (i *Injector) Windows() []Window { return i.spec.Windows }

// ScriptDrop makes the nth (1-based) transmission of the given message
// kind be lost, regardless of probabilities.
//
//simvet:allow negative-test lever: the reliability and recovery tests script exact losses with it
func (i *Injector) ScriptDrop(kind string, nth int) { i.script(kind, nth, opDrop) }

// ScriptDup makes the nth (1-based) transmission of the given message
// kind be delivered twice.
//
//simvet:allow negative-test lever: the reliability and recovery tests script exact duplicates with it
func (i *Injector) ScriptDup(kind string, nth int) { i.script(kind, nth, opDup) }

func (i *Injector) script(kind string, nth int, op scriptOp) {
	if i.scripts == nil {
		i.scripts = make(map[string][]scriptAct)
		i.sent = make(map[string]int)
	}
	i.scripts[kind] = append(i.scripts[kind], scriptAct{nth: nth, op: op})
	sort.Slice(i.scripts[kind], func(a, b int) bool { return i.scripts[kind][a].nth < i.scripts[kind][b].nth })
}

// Judge decides the fate of one transmission of the given kind. Scripted
// faults take precedence and consume no PRNG draws.
func (i *Injector) Judge(kind string) Verdict {
	if i.scripts != nil {
		i.sent[kind]++
		n := i.sent[kind]
		for _, act := range i.scripts[kind] {
			if act.nth != n {
				continue
			}
			switch act.op {
			case opDrop:
				return Verdict{Drop: true}
			case opDup:
				return Verdict{Dup: true, DupDelay: 1}
			}
		}
	}
	var v Verdict
	if i.spec.Drop > 0 && i.rng.Float64() < i.spec.Drop {
		v.Drop = true
		// A dropped transmission draws nothing further: the wire ate it.
		return v
	}
	if i.spec.Dup > 0 && i.rng.Float64() < i.spec.Dup {
		v.Dup = true
	}
	v.Delay = i.jitter()
	if v.Delay > 0 {
		i.Counters.Delayed++
	}
	if i.spec.Reorder > 0 && i.rng.Float64() < i.spec.Reorder {
		// Overtaking jitter: enough spread that messages injected later
		// can land earlier.
		v.Delay += 1 + i.rng.Uint64n(64)
		i.Counters.Reordered++
	}
	if v.Dup {
		v.DupDelay = 1 + i.jitter()
	}
	return v
}

// jitter draws the uniform per-delivery delay.
func (i *Injector) jitter() uint64 {
	if i.spec.DelayMax == 0 && i.spec.DelayMin == 0 {
		return 0
	}
	if i.spec.DelayMax > i.spec.DelayMin {
		return i.spec.DelayMin + i.rng.Uint64n(i.spec.DelayMax-i.spec.DelayMin+1)
	}
	return i.spec.DelayMin
}

// DeliveryDown consults the outage windows for a delivery to proc at
// cycle at: drop reports a crash window ate it; otherwise resumeAt is
// the earliest cycle the delivery may land (at itself when no pause
// window covers it).
func (i *Injector) DeliveryDown(proc int, at uint64) (drop bool, resumeAt uint64) {
	resumeAt = at
	for _, w := range i.spec.Windows {
		if w.Proc != proc || resumeAt < w.Start || resumeAt >= w.End() {
			continue
		}
		if !w.Pause {
			return true, 0
		}
		resumeAt = w.End()
	}
	return false, resumeAt
}

// FlushProfile adds the run's fault counters to the process-wide
// profile sections (countable in paperfigs -profile and bench reports).
func (i *Injector) FlushProfile() {
	c := &i.Counters
	profile.FaultDrops.Add(c.Dropped + c.CrashDropped + c.AckDropped)
	profile.FaultDups.Add(c.Duplicated)
	profile.FaultRetransmits.Add(c.Retransmits)
	profile.FaultTimeouts.Add(c.Timeouts)
	profile.FaultGiveUps.Add(c.GiveUps)
}
