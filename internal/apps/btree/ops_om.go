package btree

import (
	"compmig/internal/core"
	"compmig/internal/gid"
)

// Object-migration operations (the Emerald-style mechanism the paper
// wanted to compare, here as an extension): every node the operation
// touches is pulled to the requesting processor first, then accessed
// locally (walkLocal). Upper-level nodes are touched by everyone, so
// concurrent requesters steal them from each other — whole-object
// migration behaves like data migration without replication, which is
// exactly what §2.2 predicts makes it a poor fit for shared structures.

// nodeStateWords sizes a node's wire image: keys, children, header.
func nodeStateWords(nd *node) uint64 {
	words := uint64(2*len(nd.keys)) + 8
	if !nd.leaf {
		words += uint64(2 * len(nd.children))
	}
	return words
}

// pullNode brings a node to the requester and returns its state for the
// caller's visit. A node stolen again while the visit works on it is
// still the same state: updates stay correct because the node lock, not
// locality, guards them.
func (tr *Tree) pullNode(t *core.Task, g gid.GID) *node {
	for !t.IsLocal(g) {
		nd := tr.rt.Objects.State(g).(*node)
		if err := t.PullObject(g, nodeStateWords(nd)); err != nil {
			panic("btree: node pull failed: " + err.Error())
		}
	}
	return tr.rt.Objects.State(g).(*node)
}
