// Package cyclecharge is an analysistest fixture: a package opted into
// the cycle-charged runtime class, where every message send must be
// priced through the internal/cost model.
//
//simvet:package cycle-charged
package cyclecharge

import (
	"compmig/internal/cost"
	"compmig/internal/network"
	"compmig/internal/sim"
)

// BadFree injects a message with no cost-model charge anywhere in the
// function: free bandwidth that would skew every mechanism comparison.
func BadFree(n *network.Network, m *network.Message) {
	n.Send(m, nil) // want `sends a message via compmig/internal/network.Send without charging cycles`
}

// BadFreeDelayed is the SendAfter flavor.
func BadFreeDelayed(n *network.Network, m *network.Message) {
	n.SendAfter(m, 30, nil) // want `sends a message via compmig/internal/network.SendAfter without charging cycles`
}

// GoodCharged prices the send path before injecting, Table 5 style.
func GoodCharged(n *network.Network, th *sim.Thread, p *sim.Proc, m *network.Message) {
	model := cost.Software()
	th.Exec(p, model.SendLinkage+model.MessageSend)
	n.Send(m, nil)
}

// chargeHelper centralizes the pricing arithmetic.
func chargeHelper(words uint64) uint64 {
	model := cost.Software()
	return model.MarshalBase + model.MarshalPerWord*words + model.MessageSend
}

// GoodIndirect charges through a package-local helper; the analyzer's
// taint follows the call.
func GoodIndirect(n *network.Network, th *sim.Thread, p *sim.Proc, m *network.Message) {
	th.Exec(p, chargeHelper(m.Words()))
	n.Send(m, nil)
}

// BadFreeCross reaches the sharded engine's inter-lane channel without a
// charge: CrossSend bypasses the network package's priced wrappers, so a
// direct call is a free message like any other.
func BadFreeCross(eng *sim.Engine, dst int) {
	eng.CrossSend(40, dst, func() {}) // want `sends a message via compmig/internal/sim.CrossSend without charging cycles`
}

// GoodChargedCross prices the software send path before crossing lanes.
func GoodChargedCross(eng *sim.Engine, th *sim.Thread, p *sim.Proc, dst int) {
	model := cost.Software()
	th.Exec(p, model.SendLinkage+model.MessageSend)
	eng.CrossSend(40, dst, func() {})
}
