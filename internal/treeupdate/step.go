// Package treeupdate is the one place where the tree packages' two
// synchronization flavours differ. Brown's tree update template — search,
// hold the nodes a change depends on, build replacements, swing one pointer —
// is written once per tree (internal/abtree, internal/chromatic,
// internal/bst) against the Step interface below; the paper's Section 5.1
// claim that hand-over-hand tagging is a drop-in for LLX/SCX is the fact
// that Step has exactly two implementations:
//
//   - LLX holds a node by LLX-ing it (an info value plus a snapshot of the
//     node's mutable words) and commits with one SCX over the changed node
//     and the removed ones, finalizing the latter.
//   - Tagged holds a node by tagging its lines and commits with one IAS,
//     which validates every hold and invalidates the held lines at all other
//     cores. It alone carries the optional extras: a reclamation pool
//     (Begin/End bracket, Alloc, retire on commit, free on failure), a
//     fallback guard checked at Ready, and a bounded restart budget.
//
// What a Step promises: between a successful Hold of n and a successful
// Commit, no other thread's commit changed n's mutable words or removed n;
// Mut returns those words as of the hold (LLX) or under it (Tagged); Commit
// swings Slot from Old to New atomically with that check, and afterwards
// every node in Removed is unreachable for good.
//
// The two disciplines do not interleave their accesses alike, and a rule
// written once must still issue each flavour's accesses in that flavour's
// order — every Load, AddTag and Validate is priced by the simulated machine.
// Four places where they differ are visible in this interface:
//
//   - A Tagged descent holds as it goes (Seek, Down) and arrives with the
//     leaf's window held and validated; an LLX descent is free, and the rule
//     holds the window afterwards. Snapshots tells a rule which.
//   - Ready validates only if something was held since the last successful
//     validation: an update straight off a tagged descent goes to Commit
//     unvalidated, a rebalancing step that held more nodes validates first.
//   - Ready checks the fallback guard last — after the window is held, before
//     any replacement is allocated.
//   - Mut costs a load under tags and nothing under LLX, so a rule re-checks a
//     link with one Mut of the slot the search came through.
package treeupdate

import "repro/internal/core"

// MaxRemoved is the most nodes one Change detaches (chromatic's A1c and A1e:
// parent, both children and a nephew); with the changed node that is
// llxscx.MaxV dependencies.
const MaxRemoved = 4

// Change is one planned pointer swing.
type Change struct {
	Owner    core.Addr // held node containing Slot; it stays in the tree
	Slot     core.Addr // the child-pointer word to swing
	Old, New core.Addr
	Removed  [MaxRemoved]core.Addr // held nodes the swing detaches, NilAddr-padded
	Fresh    [3]core.Addr          // nodes built for New, NilAddr-padded: discarded if the commit fails
}

// Nodes pads a short list of nodes for Change.Removed.
func Nodes(ns ...core.Addr) (out [MaxRemoved]core.Addr) {
	copy(out[:], ns)
	return out
}

// Steps is a flavour: it hands each thread its Step. LLXSteps and
// TaggedSteps implement it.
type Steps interface {
	On(th core.Thread) Step
}

// Step is one thread's attempt at one atomic change.
type Step interface {
	// Begin opens an attempt and End closes it; nodes read in between stay
	// allocated (a reclamation bracket, when a pool is wired).
	Begin()
	End()

	// Seek starts a descent at root, and again after a failed Down. It
	// reports false, with nothing held, once the restart budget is spent.
	Seek(root core.Addr) bool
	// Down moves a descent to next, a child read from a held node, letting
	// go of drop (NilAddr: nothing). False means restart from Seek.
	Down(drop, next core.Addr) bool
	// Snapshots reports whether the step holds nodes by snapshot (LLX): its
	// descents are free and hold nothing, Hold captures mut mutable words
	// and Mut reads the capture. Otherwise (tags) descents hold what they
	// visit and Mut is a load under the hold.
	Snapshots() bool

	// Hold adds n to the held set, reporting false if n is frozen by an
	// unfinished SCX or already removed. mut is how many mutable words a
	// snapshot captures.
	Hold(n core.Addr, mut int) bool
	// Release lets go of a held node the change turns out not to remove.
	Release(n core.Addr)
	// Mut returns mutable word i of held node n.
	Mut(n core.Addr, i int) uint64
	// Validate reports whether every hold is still good.
	Validate() bool
	// Ready is the last point before replacements are built: it validates
	// holds taken since the last validation, then checks the fallback guard.
	Ready() bool
	// Commit performs c, reporting whether it took effect; either way
	// nothing is held afterwards.
	Commit(c Change) bool
	// Abandon lets go of everything.
	Abandon()

	// Reclaims reports whether removed nodes are recycled, so that a rule
	// must not commit on an ancestor it reached without holding.
	Reclaims() bool
	// Alloc returns storage for a replacement node, or NilAddr to have the
	// caller allocate fresh.
	Alloc() core.Addr
}
