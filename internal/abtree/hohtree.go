package abtree

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/reclaim"
	"repro/internal/treeupdate"
)

// HoHTree is the paper's hand-over-hand-tagged (a,b)-tree (Algorithms 3-5):
// searches tag a sliding window of the last three ancestors (untagging the
// great-grandparent as they descend), and every structural change is one
// invalidate-and-swap. The IAS validates the window, invalidates the
// replaced nodes at every other core (the transient marking that simulates
// SCX's finalizing), and swings a single child pointer: the template of
// tree.go run through treeupdate.Tagged.
//
// The window size of three follows the paper's observation that no
// (a,b)-tree operation atomically removes a chain of more than two nodes:
// for a node to be deleted, a pointer must change in its parent or
// grandparent, so a traversal holding valid tags on a node's two nearest
// tagged ancestors would have been invalidated by any such deletion.
type HoHTree struct {
	set
	tagged treeupdate.TaggedSteps // set.steps, typed for SetReclaim
}

// NewHoH creates an empty tree with parameters a, b (b >= 2a-1).
func NewHoH(mem core.Memory, a, b int) *HoHTree {
	t := &HoHTree{set: set{tree: newTree(mem, a, b)}}
	t.tagged = t.taggedSteps(nil)
	t.steps = t.tagged
	return t
}

// taggedSteps returns per-thread tagged steps for t's nodes, refusing a
// memory whose tag budget cannot hold the window: up to four nodes at once
// (gp, p, l and the next node during extension; likewise gp, p and two
// siblings during rebalancing). Below that budget the fast path can never
// validate.
func (t *tree) taggedSteps(fb *core.Fallback) treeupdate.TaggedSteps {
	linesPerNode := (t.ly.nodeBytes() + core.LineSize - 1) / core.LineSize
	if need := 4 * linesPerNode; t.mem.MaxTags() < need {
		panic(fmt.Sprintf("abtree: MaxTags %d below the HoH tagging window (%d lines)", t.mem.MaxTags(), need))
	}
	return treeupdate.NewTagged(t.mem, t.ly.nodeBytes(), t.ly.mutOff(), fb)
}

// NodeWords returns the reclamation pool object size for SetReclaim
// (nodes of this tree's branching factor).
func (t *HoHTree) NodeWords() int { return t.ly.nodeWords() }

// SetReclaim wires a reclamation pool (object size NodeWords). Every
// structural change replaces nodes through tag-validated IAS, and the IAS
// invalidates the whole tagged window at every other core, so the thread
// whose IAS detaches a node is its provably-unique retirer. Nodes built
// before the pool existed are adopted so their eventual replacement can
// retire them. Must not be combined with the Elided slow path: LLX/SCX
// helpers traverse finalized nodes without tag validation. Only call while
// quiescent, before operations.
func (t *HoHTree) SetReclaim(p *reclaim.Pool) {
	t.tagged.SetPool(p)
	// Adopt every current node except the sentinel (which is never
	// replaced, hence never retired).
	th := t.mem.Thread(0)
	var adopt func(n core.Addr)
	adopt = func(n core.Addr) {
		if n != t.sentinel {
			p.Adopt(n)
		}
		if leaf, _, kc := t.ly.readMeta(th, n); !leaf {
			for i := 0; i <= kc; i++ {
				adopt(core.Addr(th.Load(t.ly.ptrAddr(n, i))))
			}
		}
	}
	adopt(t.sentinel)
}
