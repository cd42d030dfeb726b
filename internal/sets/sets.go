// Package sets is the catalogue of every concurrent set in the tree: one
// entry per set, under the name memtag-stress takes on its -structs flag,
// with the set's constructor and, for the sets with retire hooks, the
// wiring of a reclamation pool. memtag-stress, the experiment harness and
// the reclamation tests read it instead of keeping their own lists, and
// settest holds every entry to one contract.
package sets

import (
	"slices"

	"repro/internal/abtree"
	"repro/internal/bst"
	"repro/internal/chromatic"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/list"
	"repro/internal/reclaim"
	"repro/internal/skiplist"
	"repro/internal/stm"
	"repro/internal/txmap"
	"repro/internal/txset"
)

// Entry is one set.
type Entry struct {
	Name string
	New  func(core.Memory) intset.Set
	// Pool is nil for a set without retire hooks. Otherwise it wires a
	// pool of policy pol over d into s, a set New built, before any
	// operation, and returns the pool. The memory must have d attached.
	Pool func(s intset.Set, d *reclaim.Domain, pol reclaim.Policy) *reclaim.Pool
	// MachineTags is the per-core tag budget (machine.Config.MaxTags) the
	// set is checked with on the simulated machine; 0 keeps the default.
	MachineTags int
}

// Reclaimer is a set with retire hooks.
type Reclaimer interface {
	intset.Set
	SetReclaim(p *reclaim.Pool)
}

// Pooled is the pool wiring of a set of type S whose unlinked nodes are
// words(s) words long.
func Pooled[S Reclaimer](words func(S) int) func(intset.Set, *reclaim.Domain, reclaim.Policy) *reclaim.Pool {
	return func(s intset.Set, d *reclaim.Domain, pol reclaim.Policy) *reclaim.Pool {
		p := reclaim.NewPool(d, words(s.(S)), pol)
		s.(S).SetReclaim(p)
		return p
	}
}

// The (a,b)-trees' degree bounds, as in the paper's Figures 6 and 7.
const (
	TreeA = 4
	TreeB = 8
)

// stmTags is the transactional sets' tag budget: an STM read set spans
// many lines.
const stmTags = 128

// words is a node size that does not depend on the set.
func words[S any](n int) func(S) int { return func(S) int { return n } }

var all = []Entry{
	{"harris-list", func(m core.Memory) intset.Set { return list.NewHarris(m) }, nil, 0},
	{"vas-list", func(m core.Memory) intset.Set { return list.NewVAS(m) }, Pooled(words[*list.VAS](list.NodeWords)), 0},
	{"hoh-list", func(m core.Memory) intset.Set { return list.NewHoH(m) }, Pooled(words[*list.HoH](list.NodeWords)), 0},
	{"lock-list", func(m core.Memory) intset.Set { return list.NewLock(m) }, nil, 0},
	{"elided-list", func(m core.Memory) intset.Set { return list.NewElided(m, 0) }, nil, 0},
	{"llx-tree", func(m core.Memory) intset.Set { return abtree.NewLLX(m, TreeA, TreeB) }, nil, 0},
	{"hoh-tree", func(m core.Memory) intset.Set { return abtree.NewHoH(m, TreeA, TreeB) }, Pooled((*abtree.HoHTree).NodeWords), 0},
	{"elided-tree", func(m core.Memory) intset.Set { return abtree.NewElided(m, TreeA, TreeB, 0) }, nil, 0},
	{"llx-bst", func(m core.Memory) intset.Set { return bst.NewLLX(m) }, nil, 0},
	{"hoh-bst", func(m core.Memory) intset.Set { return bst.NewHoH(m) }, nil, 0},
	{"llx-chromatic", func(m core.Memory) intset.Set { return chromatic.NewLLX(m) }, nil, 0},
	{"hoh-chromatic", func(m core.Memory) intset.Set { return chromatic.NewHoH(m) }, nil, 0},
	{"skiplist-cas", func(m core.Memory) intset.Set { return skiplist.New(m) }, nil, 0},
	{"skiplist-vas", func(m core.Memory) intset.Set { return skiplist.NewVAS(m) }, Pooled(words[*skiplist.List](skiplist.NodeWords)), 0},
	{"norec-set", func(m core.Memory) intset.Set { return txset.New(m, stm.NewNOrec(m)) }, nil, stmTags},
	{"tagged-set", func(m core.Memory) intset.Set { return txset.New(m, stm.NewTagged(m)) }, Pooled(words[*txset.Set](txmap.NodeWords)), stmTags},
}

// All returns every set, in memtag-stress's order.
func All() []Entry { return slices.Clone(all) }

// Lookup returns the set named name.
func Lookup(name string) (Entry, bool) {
	for _, e := range all {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Must returns the set named name; it panics if there is none.
func Must(name string) Entry {
	e, ok := Lookup(name)
	if !ok {
		panic("sets: no set named " + name)
	}
	return e
}
