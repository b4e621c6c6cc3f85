package countnet

import (
	"strings"
	"testing"

	"compmig/internal/core"
	"compmig/internal/fault"
	"compmig/internal/sim"
)

// driveTraffic pushes threads*perThread traversals through the network
// and returns the total.
func driveTraffic(t *testing.T, env *testEnv, threads, perThread int) uint64 {
	t.Helper()
	for i := 0; i < threads; i++ {
		i := i
		env.eng.Spawn("req", sim.Time(i*13), func(th *sim.Thread) {
			task := env.rt.NewTask(th, 24+i)
			for k := 0; k < perThread; k++ {
				env.net.Traverse(task, (i+k)%8)
			}
		})
	}
	if err := env.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return uint64(threads * perThread)
}

// A clean run satisfies every invariant the checker knows, under each
// mechanism.
func TestCheckInvariantsCleanRun(t *testing.T) {
	for _, scheme := range []core.Scheme{
		{Mechanism: core.RPC}, {Mechanism: core.Migrate}, {Mechanism: core.SharedMem},
	} {
		env := buildEnv(t, scheme, 6)
		total := driveTraffic(t, env, 6, 20)
		if err := env.net.CheckInvariants(total); err != nil {
			t.Errorf("%s: %v", scheme.Name(), err)
		}
	}
}

// The checker must actually catch corruption — otherwise the "ok"
// column in the fault sweep proves nothing. Each corruption models a
// fault the recovery protocols exist to prevent.
func TestCheckInvariantsCatchCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*Network)
		wantSub string
	}{
		{
			// A duplicate counter access that slipped suppression: one
			// extra take on some counter.
			"double take",
			func(n *Network) {
				c := n.rt.Objects.State(n.counterGID[0]).(*counter)
				c.next += c.width
			},
			"step property violated",
		},
		{
			// A torn update: the counter value is off its residue class.
			"torn counter",
			func(n *Network) {
				n.rt.Objects.State(n.counterGID[3]).(*counter).next++
			},
			"impossible value",
		},
		{
			// A dropped balancer visit that was never retried.
			"lost token",
			func(n *Network) {
				n.rt.Objects.State(n.balGID[2][0]).(*balancer).visits--
			},
			"token conservation violated",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := buildEnv(t, core.Scheme{Mechanism: core.RPC}, 4)
			total := driveTraffic(t, env, 4, 10)
			c.corrupt(env.net)
			err := env.net.CheckInvariants(total)
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q lacks %q", err, c.wantSub)
			}
		})
	}
}

// RunExperiment under an enabled plan must attach the injector, report
// its counters, and come back with the invariant checker clean.
func TestRunExperimentReportsFaultCounters(t *testing.T) {
	res := RunExperiment(Config{
		Threads: 8, Scheme: core.Scheme{Mechanism: core.RPC},
		Seed: 1, Warmup: 20000, Measure: 100000,
		Faults: &fault.Spec{Drop: 0.03, Dup: 0.01, DelayMax: 20, Seed: 5},
	})
	if res.Fault == nil {
		t.Fatal("faulty run reported no fault counters")
	}
	if res.Fault.Dropped == 0 || res.Fault.Retransmits == 0 {
		t.Errorf("plan injected nothing: %+v", *res.Fault)
	}
	if res.InvariantErr != "" {
		t.Errorf("invariants violated: %s", res.InvariantErr)
	}

	clean := RunExperiment(Config{
		Threads: 8, Scheme: core.Scheme{Mechanism: core.RPC},
		Seed: 1, Warmup: 20000, Measure: 100000,
	})
	if clean.Fault != nil {
		t.Error("fault-free run reported fault counters")
	}
}

// Under dup=0.5 half of all transmissions arrive twice, and the jitter
// lands many duplicates well after the first copy was consumed and its
// message recycled into a later send. The reliability layer must hand
// each message over once and never reach it again for a duplicate;
// both message-passing schemes must keep the network's invariants.
func TestDuplicatedDeliveriesKeepInvariants(t *testing.T) {
	for _, mech := range []core.Mechanism{core.RPC, core.Migrate} {
		res := RunExperiment(Config{
			Threads: 8, Scheme: core.Scheme{Mechanism: mech},
			Seed: 1, Warmup: 20000, Measure: 100000,
			Faults: &fault.Spec{Dup: 0.5, DelayMax: 500, Seed: 5},
		})
		if res.Fault == nil || res.Fault.DupSuppressed == 0 {
			t.Errorf("%v: plan suppressed no duplicate: %+v", mech, res.Fault)
		}
		if res.InvariantErr != "" {
			t.Errorf("%v: invariants violated: %s", mech, res.InvariantErr)
		}
	}
}
