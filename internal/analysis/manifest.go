// The checked-in classification manifest. DESIGN.md ("Determinism
// invariants and simvet") documents the invariant each class carries;
// this file is the machine-readable source of truth the analyzers
// enforce it from, so adding a package to a class is a reviewed change.
package analysis

import "strings"

// Class is a package's simvet classification. A package may belong to
// several classes (core is both simulation-charged and cycle-charged).
type Class struct {
	// SimCharged marks packages whose code runs inside the simulated
	// machine: all of their control flow is ordered by the event heap, so
	// host time, host randomness, ambient environment, and host
	// concurrency primitives are forbidden (nodeterminism, maporder).
	SimCharged bool

	// HostSide marks packages declared simulation-inert: they observe the
	// simulation but must never schedule events or charge cycles
	// (simpurity). This is the structural form of the policy layer's
	// "decisions take zero simulated time" contract.
	HostSide bool

	// CycleCharged marks runtime packages whose message sends must be
	// priced through the internal/cost model (cyclecharge).
	CycleCharged bool
}

var classByName = map[string]func(*Class){
	"sim-charged":   func(c *Class) { c.SimCharged = true },
	"host-side":     func(c *Class) { c.HostSide = true },
	"cycle-charged": func(c *Class) { c.CycleCharged = true },
}

func classNames() []string {
	return []string{"sim-charged", "host-side", "cycle-charged"}
}

// Package paths used by the sink and source sets below. The fixture
// modules under testdata import these same packages, so the analyzers
// behave identically on fixtures and on the real tree.
const (
	simPath     = "compmig/internal/sim"
	networkPath = "compmig/internal/network"
	statsPath   = "compmig/internal/stats"
	costPath    = "compmig/internal/cost"
)

// simChargedPaths lists the packages whose code executes under the event
// heap. internal/harness is deliberately absent: it is the host-parallel
// orchestration layer (worker pools, spec fan-out) and owns real
// concurrency; each worker drives a private engine.
var simChargedPaths = []string{
	simPath,
	"compmig/internal/core",
	"compmig/internal/mem",
	networkPath,
	"compmig/internal/msg",
	"compmig/internal/fault",
	"compmig/internal/gid",
	"compmig/internal/object",
	"compmig/internal/repl",
	// The durability store's appends and recovery replays are charged in
	// simulated cycles on the logging processor, so its control flow is
	// event-heap ordered like the rest of the runtime.
	"compmig/internal/store",
	"compmig/internal/apps/...",
	// The machine constructor schedules the measurement-window events and
	// spawns the applications' requester threads.
	"compmig/internal/machine",
	// The workload generator's event stream is part of the simulation's
	// deterministic input: its draws must come from forked sim.PRNG
	// streams only.
	"compmig/internal/load",
}

// hostSidePaths lists the packages declared simulation-inert.
var hostSidePaths = []string{
	"compmig/internal/policy",
	"compmig/internal/profile",
	statsPath,
	"compmig/internal/advisor",
}

// cycleChargedPaths lists the runtime packages whose sends must flow
// through the cost model. The network package itself is the definer of
// the send primitives (it charges wire time, not software overhead) and
// is therefore not in this set.
var cycleChargedPaths = []string{
	"compmig/internal/core",
}

// matchPath reports whether path matches pattern, where a trailing
// "/..." matches the package and any subpackage.
func matchPath(path, pattern string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return path == pattern
}

func matchAny(path string, patterns []string) bool {
	for _, p := range patterns {
		if matchPath(path, p) {
			return true
		}
	}
	return false
}

// classify computes a package's classes from the manifest and any
// //simvet:package directives found in its files.
func classify(path string, dirs *directives) Class {
	var c Class
	if matchAny(path, simChargedPaths) {
		c.SimCharged = true
	}
	if matchAny(path, hostSidePaths) {
		c.HostSide = true
	}
	if matchAny(path, cycleChargedPaths) {
		c.CycleCharged = true
	}
	for _, name := range dirs.classes {
		classByName[name](&c)
	}
	return c
}

// funcKey names a function or method for the sink sets: the package it
// is declared in plus its bare name (method receiver types are not
// needed at this granularity — the named packages are small and their
// send/schedule names unambiguous).
type funcKey struct {
	pkg  string
	name string
}

// schedulingSinks are the event-scheduling and cycle-charging entry
// points of the simulation core. A map-range body must not reach them
// (maporder), and host-side packages must not call them at all
// (simpurity).
var schedulingSinks = map[funcKey]bool{
	// Event scheduling and thread control.
	{simPath, "Schedule"}:     true,
	{simPath, "At"}:           true,
	{simPath, "schedule"}:     true,
	{simPath, "scheduleWake"}: true,
	{simPath, "Spawn"}:        true,
	{simPath, "ScheduleOn"}:   true,
	{simPath, "CrossSend"}:    true,
	{simPath, "AtBarrier"}:    true,
	{simPath, "Unpark"}:       true,
	{simPath, "UnparkAt"}:     true,
	{simPath, "Sleep"}:        true,
	{simPath, "Park"}:         true,
	{simPath, "Yield"}:        true,
	{simPath, "TryAdvance"}:   true,
	// Processor time.
	{simPath, "Exec"}:      true,
	{simPath, "ExecAsync"}: true,
	// Message injection.
	{networkPath, "Send"}:        true,
	{networkPath, "SendAfter"}:   true,
	{networkPath, "SendGuarded"}: true,
}

// chargingSinks extends schedulingSinks with the accounting calls that
// charge simulated cycles or traffic; host-side packages (simpurity)
// must avoid these too.
var chargingSinks = map[funcKey]bool{
	{statsPath, "AddCycles"}:    true,
	{statsPath, "CountMessage"}: true,
}

// sendSinks are the message-send primitives audited by cyclecharge.
// Engine.CrossSend is the sharded engine's inter-lane channel: it
// bypasses the network package's Send wrappers, so a cycle-charged
// package reaching it directly must price the send itself.
var sendSinks = map[funcKey]bool{
	{networkPath, "Send"}:        true,
	{networkPath, "SendAfter"}:   true,
	{networkPath, "SendGuarded"}: true,
	{simPath, "CrossSend"}:       true,
}

// randSourcePaths are the packages allowed to implement randomness; all
// other randomness must flow from the seeded sim.PRNG streams they
// provide (seededrand).
var randSourcePaths = []string{
	simPath,
}
