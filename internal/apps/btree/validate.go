package btree

import (
	"fmt"
	"slices"

	"compmig/internal/gid"
)

// checkNode validates the subtree rooted at g against its advertised key
// interval (low, high] and leaf depth. It is host-level and intended for
// tests at quiescence, when all splits have fully propagated.
func (tr *Tree) checkNode(g gid.GID, low, high uint64, depth int) error {
	nd := tr.rt.Objects.State(g).(*node)
	if nd.high != high {
		return fmt.Errorf("node %#x: high=%d, parent bound %d", uint64(g), nd.high, high)
	}
	if len(nd.keys) == 0 {
		if nd.leaf {
			return nil // empty leaf: legal only in an empty tree
		}
		return fmt.Errorf("node %#x: empty interior node", uint64(g))
	}
	for i := 1; i < len(nd.keys); i++ {
		if nd.keys[i-1] >= nd.keys[i] {
			return fmt.Errorf("node %#x: keys not strictly increasing at %d", uint64(g), i)
		}
	}
	if nd.leaf {
		if depth != 1 {
			return fmt.Errorf("node %#x: leaf at depth %d levels above bottom", uint64(g), depth)
		}
		for _, k := range nd.keys {
			if k <= low && low != 0 || k > high {
				return fmt.Errorf("leaf %#x: key %d outside (%d,%d]", uint64(g), k, low, high)
			}
		}
		return nil
	}
	if depth == 1 {
		return fmt.Errorf("node %#x: interior at leaf depth", uint64(g))
	}
	if len(nd.children) != len(nd.keys) {
		return fmt.Errorf("node %#x: %d children for %d keys", uint64(g), len(nd.children), len(nd.keys))
	}
	if nd.keys[len(nd.keys)-1] != nd.high {
		return fmt.Errorf("node %#x: last key %d != high %d", uint64(g), nd.keys[len(nd.keys)-1], nd.high)
	}
	prev := low
	for i, ch := range nd.children {
		if err := tr.checkNode(ch, prev, nd.keys[i], depth-1); err != nil {
			return err
		}
		prev = nd.keys[i]
	}
	return nil
}

// AllKeys walks the leaf level (host-level) and returns every stored key
// in order. Used as a test oracle.
func (tr *Tree) AllKeys() []uint64 {
	g := tr.root
	for {
		nd := tr.rt.Objects.State(g).(*node)
		if nd.leaf {
			break
		}
		g = nd.children[0]
	}
	n := 0
	for l := g; !l.IsNil(); {
		nd := tr.rt.Objects.State(l).(*node)
		n += len(nd.keys)
		l = nd.right
	}
	keys := make([]uint64, 0, n)
	for !g.IsNil() {
		nd := tr.rt.Objects.State(g).(*node)
		keys = append(keys, nd.keys...)
		g = nd.right
	}
	return keys
}

// VerifyKeySet checks the tree's full post-run integrity: structural
// B-link invariants (CheckInvariants), plus exact key-set equality
// against the initial load and the host-tracked set of successfully
// inserted keys. Fault-injected runs use it to prove recovery preserved
// exactly-once semantics — a lost insert shows up as a missing key, a
// replayed one as a duplicate.
func (tr *Tree) VerifyKeySet(initial []uint64, inserted map[uint64]struct{}) error {
	if err := tr.CheckInvariants(); err != nil {
		return err
	}
	got := tr.AllKeys()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			return fmt.Errorf("btree: leaf keys not strictly increasing: %d then %d (duplicate insert?)",
				got[i-1], got[i])
		}
	}
	// got is strictly increasing, so a binary search tests membership.
	// Iterate the expectations in deterministic order so a given failure
	// always reports the same key.
	for _, k := range initial {
		if _, ok := slices.BinarySearch(got, k); !ok {
			return fmt.Errorf("btree: initial key %d lost", k)
		}
	}
	lost := uint64(0)
	for k := range inserted {
		if _, ok := slices.BinarySearch(got, k); !ok && (lost == 0 || k < lost) {
			lost = k
		}
	}
	if lost != 0 {
		return fmt.Errorf("btree: inserted key %d lost", lost)
	}
	want := len(inserted)
	for _, k := range initial {
		if _, dup := inserted[k]; !dup {
			want++
		}
	}
	if len(got) != want {
		return fmt.Errorf("btree: tree holds %d keys, want %d (phantom insert?)", len(got), want)
	}
	return nil
}
