package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"compmig/internal/core"
	"compmig/internal/fault"
	"compmig/internal/machine"
	"compmig/internal/policy"
)

// MachineFlags is the flag set the application CLIs share (-scheme,
// -policy, -policy-stats, -faults, -durable and -seed) with the checks
// that reject a bad value before a run, and the printer for the lines
// every application reports the same way. A bad flag exits 2 with a
// one-line message prefixed with the application's name.
type MachineFlags struct {
	// The parsed values, valid after Parse.
	Scheme  core.Scheme
	Policy  string
	Faults  *fault.Spec
	Durable bool
	Seed    uint64

	app                         string
	scheme, faults, policyStats string
}

// NewMachineFlags registers the shared flags on the command line for
// the application app; schemeUsage documents the schemes it accepts.
func NewMachineFlags(app, schemeUsage string) *MachineFlags {
	f := &MachineFlags{app: app}
	flag.StringVar(&f.scheme, "scheme", "cm", schemeUsage)
	flag.StringVar(&f.Policy, "policy", "", "online mechanism selection: static:<rpc|cm|sm|om>, costmodel, or bandit[:eps]")
	flag.StringVar(&f.policyStats, "policy-stats", "", "write the policy engine's live statistics as JSON to this file (requires -policy)")
	flag.StringVar(&f.faults, "faults", "", "fault plan, e.g. drop=0.01,delay=0:40,crash=p3@50000+20000,wipe=p2@60000+8000,ckpt=20000,seed=7 (empty = no faults)")
	flag.BoolVar(&f.Durable, "durable", false, "force the per-processor WAL/checkpoint store on (wipe= windows switch it on automatically)")
	flag.Uint64Var(&f.Seed, "seed", 1, "simulation seed")
	return f
}

// Parse validates the shared flags; call it after flag.Parse.
func (f *MachineFlags) Parse() {
	var err error
	if f.Scheme, err = ParseScheme(f.scheme); err != nil {
		f.Fail(err)
	}
	if f.Faults, err = fault.ParseSpec(f.faults); err != nil {
		f.Fail(err)
	}
	if f.policyStats != "" && f.Policy == "" {
		f.Fail("-policy-stats requires -policy")
	}
	if f.Policy != "" {
		if err := policy.Validate(f.Policy); err != nil {
			f.Fail(err)
		}
	}
}

// CheckProcs rejects a fault plan whose windows target a processor
// outside a machine of nprocs processors.
func (f *MachineFlags) CheckProcs(nprocs int) {
	if err := machine.CheckWindows(f.Faults, nprocs); err != nil {
		f.Fail(err)
	}
}

// Fail prints msg prefixed with the application's name and exits 2.
func (f *MachineFlags) Fail(msg any) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.app, msg)
	os.Exit(2)
}

// WriteOutputs writes the policy statistics to the -policy-stats file,
// exiting 1 when it cannot, and dumps the run's trace, if any, to stderr.
func (f *MachineFlags) WriteOutputs(r *machine.Result) {
	if f.policyStats != "" {
		data, err := json.MarshalIndent(r.PolicyStats, "", "  ")
		if err == nil {
			err = os.WriteFile(f.policyStats, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing policy stats: %v\n", f.app, err)
			os.Exit(1)
		}
	}
	if r.Trace != nil {
		if err := r.Trace.Dump(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}

// PrintPolicy prints the policy line of a policy run, with its
// per-mechanism decisions.
func PrintPolicy(r *machine.Result) {
	if r.Policy != "" {
		d := r.Decisions
		fmt.Printf("policy            %s (decisions rpc:%d cm:%d sm:%d om:%d)\n",
			r.Policy, d[core.RPC], d[core.Migrate], d[core.SharedMem], d[core.ObjMigrate])
	}
}

// PrintOutcome prints the fault, durability and invariant lines. The
// invariant verdict is printed when checked is set or the run was
// faulty or durable; a violation goes to stderr and exits 1.
func (f *MachineFlags) PrintOutcome(r *machine.Result, checked bool) {
	if r.Fault != nil {
		fmt.Printf("faults injected   drop:%d dup:%d crash:%d pause:%d\n",
			r.Fault.Dropped, r.Fault.Duplicated, r.Fault.CrashDropped, r.Fault.PauseDelayed)
		fmt.Printf("fault recovery    retransmits:%d timeouts:%d dup-suppressed:%d giveups:%d\n",
			r.Fault.Retransmits, r.Fault.Timeouts, r.Fault.DupSuppressed, r.Fault.GiveUps)
	}
	if r.Recovery != nil {
		fmt.Printf("durability        appends:%d fsyncs:%d checkpoints:%d ckpt-words:%d\n",
			r.Recovery.Appends, r.Recovery.Fsyncs, r.Recovery.Checkpoints, r.Recovery.CheckpointWords)
		fmt.Printf("crash recovery    wipes:%d restores:%d replays:%d rereg:%d cycles:%d\n",
			r.Recovery.Wipes, r.Recovery.Restores, r.Recovery.Replays, r.Recovery.Reregistered, r.Recovery.RecoveryCycles)
	}
	if checked || r.Fault != nil || r.Recovery != nil {
		if r.InvariantErr != "" {
			fmt.Fprintf(os.Stderr, "%s: INVARIANT VIOLATED: %s\n", f.app, r.InvariantErr)
			os.Exit(1)
		}
		fmt.Printf("invariants        ok\n")
	}
}
