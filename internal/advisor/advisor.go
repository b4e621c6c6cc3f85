// Package advisor implements the paper's §6 direction of "compiler
// analysis techniques for automatically choosing among the remote
// access mechanisms": given the machine's cost model and a profile of a
// call site (how many consecutive accesses hit the same remote object,
// how big the argument, reply, and continuation records are), it
// predicts the cycle cost of performing the access run under RPC versus
// migrating the activation, and picks the cheaper mechanism.
//
// The estimates come straight from the Table 5 cost model, so the
// advisor's crossovers match the measured runtime: shipping a small
// frame wins as soon as an object is touched more than about once, and
// loses only when the frame dwarfs the argument records.
package advisor

import (
	"fmt"

	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/network"
)

// SiteProfile describes one remote call site, in 32-bit words. The
// numbers are what a compiler would derive statically (record sizes)
// plus what profiling supplies (mean run length).
type SiteProfile struct {
	// AccessesPerVisit is the mean number of consecutive accesses the
	// procedure makes to the same remote object (the model's n).
	AccessesPerVisit float64
	// ArgWords and ReplyWords size the RPC records per access.
	ArgWords, ReplyWords uint64
	// ContWords sizes the continuation record (live variables).
	ContWords uint64
	// ShortMethod marks the access as eligible for the active-message
	// fast path under RPC.
	ShortMethod bool
	// ChainLength is how many objects the procedure visits in sequence
	// (the model's m); the migration return is amortized over it.
	ChainLength float64
	// WorkCycles is the user-code compute per object visit. The advisor's
	// own estimates exclude it: every mechanism runs the same user code,
	// so on a uniform machine it cancels out of the comparison. It exists
	// for speed-aware selectors (internal/policy), where the same work
	// costs different amounts depending on which processor executes it —
	// the storage home under RPC and migration, the requester under
	// shared memory.
	WorkCycles float64
}

// Advisor chooses mechanisms under a fixed machine cost model.
type Advisor struct {
	model cost.Model
}

// New returns an advisor for the given cost model.
func New(model cost.Model) *Advisor { return &Advisor{model: model} }

// rpcCost estimates the cycles one remote ACCESS costs under RPC:
// request send + transit + server receive, then the symmetric reply.
func (a *Advisor) rpcCost(p SiteProfile) float64 {
	m := a.model
	req := uint64(5) + p.ArgWords + network.HeaderWords // method, gid, linkage
	rep := uint64(1) + p.ReplyWords + network.HeaderWords
	c := m.SendOverhead(req) + m.Transit(1) + m.RecvOverhead(req, p.ShortMethod) +
		m.SendOverhead(rep) + m.Transit(1) +
		m.CopyPacket(rep) + m.RecvLinkage + m.Unmarshal(rep) + m.Scheduler + m.RecvAllocPacket
	return float64(c)
}

// migrateCost estimates the cycles one HOP of computation migration
// costs: one message carrying the continuation, received with a handler
// thread; the return message is amortized over the chain.
func (a *Advisor) migrateCost(p SiteProfile) float64 {
	m := a.model
	mig := uint64(3) + p.ContWords + network.HeaderWords // cont id + linkage
	hop := float64(m.SendOverhead(mig) + m.Transit(1) + m.RecvOverhead(mig, false))
	rep := uint64(1) + p.ReplyWords + network.HeaderWords
	ret := float64(m.SendOverhead(rep) + m.Transit(1) +
		m.CopyPacket(rep) + m.RecvLinkage + m.Unmarshal(rep) + m.Scheduler + m.RecvAllocPacket)
	chain := p.ChainLength
	if chain < 1 {
		chain = 1
	}
	return hop + ret/chain
}

// EstimateRPC returns the predicted cycles for the whole visit (all
// consecutive accesses) under RPC.
func (a *Advisor) EstimateRPC(p SiteProfile) float64 {
	n := p.AccessesPerVisit
	if n < 1 {
		n = 1
	}
	return n * a.rpcCost(p)
}

// EstimateMigrate returns the predicted cycles for the whole visit under
// computation migration: one hop, then every access is local.
func (a *Advisor) EstimateMigrate(p SiteProfile) float64 {
	return a.migrateCost(p)
}

// Choose picks the cheaper mechanism for the profile.
func (a *Advisor) Choose(p SiteProfile) core.Mechanism {
	if a.EstimateMigrate(p) <= a.EstimateRPC(p) {
		return core.Migrate
	}
	return core.RPC
}

// CrossoverAccesses returns the smallest mean run length at which
// migration wins for the given record sizes, or -1 if it never does
// within limit.
func (a *Advisor) CrossoverAccesses(p SiteProfile, limit int) float64 {
	for n := 1; n <= limit; n++ {
		p.AccessesPerVisit = float64(n)
		if a.Choose(p) == core.Migrate {
			return float64(n)
		}
	}
	return -1
}

// Explain renders the decision for humans (and for the tuning docs).
func (a *Advisor) Explain(p SiteProfile) string {
	rpc := a.EstimateRPC(p)
	mig := a.EstimateMigrate(p)
	return fmt.Sprintf("rpc=%.0f cycles, migrate=%.0f cycles -> %v",
		rpc, mig, a.Choose(p))
}
