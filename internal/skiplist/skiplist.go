// Package skiplist implements a lock-free skip list ordered set over
// simulated memory, in the Fraser/Herlihy-Shavit style (per-level mark
// bits, bottom level authoritative), in two flavours:
//
//   - the CAS baseline, and
//   - the paper's VAS flavour (Section 1 notes tagging applies to
//     skip lists — where OPTIK-style version locks cannot): every pointer
//     swing tags the nodes it depends on and commits with
//     validate-and-swap, so contended failures are detected locally
//     instead of through coherence traffic.
//
// A mark-free hand-over-hand variant (like the tagged linked list) would
// need a deletion protocol that atomically severs a tower's incoming
// pointers on every level with one invalidation; the paper leaves that
// design open, so this package keeps marks for correctness and uses tags
// for the fast-fail acceleration, mirroring the paper's Algorithm 1.
package skiplist

import (
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/reclaim"
)

// MaxLevel is the tower height cap (supports ~2^20 keys comfortably).
const MaxLevel = 12

// Node layout (words).
const (
	fKey    = 0
	fHeight = 1
	fLinked = 2 // linking handshake, see linkDone/linkHandoff
	fNext   = 3 // MaxLevel next pointers, mark bit 0 marks the node at that level
)

// fLinked states (only used under reclamation). Exactly two parties touch
// the word — the inserter and the unique deleter (bottom-mark winner) — so
// one CAS each decides which of them retires the tower.
const (
	linkBusy    uint64 = 0 // inserter may still swing upper levels
	linkDone    uint64 = 1 // inserter finished: the deleter retires
	linkHandoff uint64 = 2 // deleter found the tower mid-link: the inserter retires
)

const (
	headKey uint64 = 0
	tailKey uint64 = ^uint64(0)
)

func isMarked(w uint64) bool    { return w&1 != 0 }
func withMark(w uint64) uint64  { return w | 1 }
func clearMark(w uint64) uint64 { return w &^ 1 }

// List is a concurrent skip list set.
type List struct {
	mem    core.Memory
	head   core.Addr
	tagged bool
	pool   *reclaim.Pool
}

var _ intset.Set = (*List)(nil)

// nodeWords is the allocation size for a full-height node; shorter towers
// still allocate full height for layout uniformity (one node, one or more
// private lines, as the paper maps nodes to lines).
const nodeWords = fNext + MaxLevel

const nodeBytes = nodeWords * core.WordSize

// NodeWords is the reclamation pool object size for SetReclaim.
const NodeWords = nodeWords

// New creates an empty baseline (CAS) skip list.
func New(mem core.Memory) *List { return newList(mem, false) }

// NewVAS creates an empty tagged (VAS) skip list.
func NewVAS(mem core.Memory) *List { return newList(mem, true) }

func newList(mem core.Memory, tagged bool) *List {
	th := mem.Thread(0)
	tail := th.Alloc(nodeWords)
	th.Store(tail.Plus(fKey), tailKey)
	th.Store(tail.Plus(fHeight), MaxLevel)
	head := th.Alloc(nodeWords)
	th.Store(head.Plus(fKey), headKey)
	th.Store(head.Plus(fHeight), MaxLevel)
	for l := 0; l < MaxLevel; l++ {
		th.Store(head.Plus(fNext+l), uint64(tail))
	}
	return &List{mem: mem, head: head, tagged: tagged}
}

// Tagged reports whether this list uses VAS.
func (s *List) Tagged() bool { return s.tagged }

// SetReclaim wires a reclamation pool (object size nodeWords) to the VAS
// flavour: towers are allocated from it and the deleting thread retires a
// tower once it is unlinked at every level. The CAS baseline must not
// recycle — its plain compare-and-swap swings are ABA-vulnerable the
// moment an address can reappear — so wiring it panics. Only call while
// quiescent, before operations.
func (s *List) SetReclaim(p *reclaim.Pool) {
	if !s.tagged {
		panic("skiplist: reclamation requires the VAS flavour (CAS swings are ABA-unsafe)")
	}
	s.pool = p
}

func (s *List) enter(th core.Thread) {
	if s.pool != nil {
		s.pool.Enter(th)
	}
}

func (s *List) leave(th core.Thread) {
	if s.pool != nil {
		s.pool.Exit(th)
	}
}

func keyOf(th core.Thread, n core.Addr) uint64 { return th.Load(n.Plus(fKey)) }
func nextAddr(n core.Addr, level int) core.Addr {
	return n.Plus(fNext + level)
}

// heightForKey derives a deterministic geometric(1/2) tower height from the
// key, making runs reproducible without shared RNG state.
func heightForKey(key uint64) int {
	h := key * 0x9e3779b97f4a7c15
	h ^= h >> 32
	h = h*0xbf58476d1ce4e5b9 + 1
	lvl := 1
	for h&1 == 1 && lvl < MaxLevel {
		lvl++
		h >>= 1
	}
	return lvl
}

// swing performs one pointer change: plain CAS in the baseline; in the
// tagged flavour it tags the owning node, re-checks the expected value,
// and commits with VAS (fail-fast, Algorithm 1 style).
func (s *List) swing(th core.Thread, owner core.Addr, slot core.Addr, old, new uint64) bool {
	if !s.tagged {
		return th.CAS(slot, old, new)
	}
	th.AddTag(owner, nodeBytes)
	if th.Load(slot) != old {
		th.ClearTagSet()
		return false
	}
	ok := th.VAS(slot, new)
	th.ClearTagSet()
	return ok
}

// find locates the insertion window for key on every level, helping unlink
// marked nodes. It returns the per-level predecessors and successors and
// whether an unmarked bottom-level node holds key.
//
// find never reports key absent while a node holding key is still among the
// successors it returns — the node the walk stopped at on the bottom level,
// marked after the walk passed it, or one it stopped at on an upper level
// before the deleter's top-down marking got there. Such a node is a deleted
// twin, marked on every level by now, and an Insert(key) given that window
// would link its new node directly in front of it. Every later find(key)
// stops at the new node, so the twin's deleter could never reach the twin
// to unlink it and would retire a tower that is still linked: once
// recycled under a smaller key, the stale pointer closes a cycle. Walking
// again unlinks the twin instead.
func (s *List) find(th core.Thread, key uint64, preds, succs *[MaxLevel]core.Addr) bool {
retry:
	for {
		pred := s.head
		twinAbove := false
		for level := MaxLevel - 1; level >= 0; level-- {
			curr := core.Addr(clearMark(th.Load(nextAddr(pred, level))))
			for {
				nextW := th.Load(nextAddr(curr, level))
				for isMarked(nextW) {
					// curr is deleted at this level: unlink it.
					if !s.swing(th, pred, nextAddr(pred, level), uint64(curr), clearMark(nextW)) {
						continue retry
					}
					curr = core.Addr(clearMark(nextW))
					nextW = th.Load(nextAddr(curr, level))
				}
				k := keyOf(th, curr)
				if k < key {
					pred = curr
					curr = core.Addr(clearMark(nextW))
					continue
				}
				if k == key && level > 0 {
					twinAbove = true
				}
				break
			}
			preds[level] = pred
			succs[level] = curr
		}
		n := succs[0]
		if keyOf(th, n) == key {
			if !isMarked(th.Load(nextAddr(n, 0))) {
				return true
			}
		} else if !twinAbove {
			return false
		}
	}
}

// Insert adds key, reporting whether it was absent.
func (s *List) Insert(th core.Thread, key uint64) bool {
	s.enter(th)
	defer s.leave(th)
	height := heightForKey(key)
	var preds, succs [MaxLevel]core.Addr
	for {
		if s.find(th, key, &preds, &succs) {
			return false
		}
		var node core.Addr
		if s.pool != nil {
			node = s.pool.Alloc(th)
			// A recycled tower may carry a stale linked flag; clear it
			// before the node becomes reachable.
			th.Store(node.Plus(fLinked), linkBusy)
		} else {
			node = th.Alloc(nodeWords)
		}
		th.Store(node.Plus(fKey), key)
		th.Store(node.Plus(fHeight), uint64(height))
		for l := 0; l < height; l++ {
			th.Store(nextAddr(node, l), uint64(succs[l]))
		}
		// Linearization: link the bottom level.
		if !s.swing(th, preds[0], nextAddr(preds[0], 0), uint64(succs[0]), uint64(node)) {
			if s.pool != nil {
				s.pool.FreePrivate(th, node) // never published
			}
			continue
		}
		// Best-effort upper-level linking. finishLink marks the tower safe
		// to retire: once the flag reads linkDone, no insert-side swing of
		// this node is still in flight (see the deleter's second find pass).
		for l := 1; l < height; l++ {
			for {
				nextW := th.Load(nextAddr(node, l))
				if isMarked(nextW) {
					s.finishLink(th, node)
					return true // concurrently deleted; done
				}
				if core.Addr(clearMark(nextW)) != succs[l] {
					// Refresh our own forward pointer first.
					if !th.CAS(nextAddr(node, l), nextW, uint64(succs[l])) {
						continue
					}
				}
				if s.swing(th, preds[l], nextAddr(preds[l], l), uint64(succs[l]), uint64(node)) {
					break
				}
				if s.find(th, key, &preds, &succs) == false || succs[0] != node {
					s.finishLink(th, node)
					return true // deleted while linking
				}
			}
		}
		s.finishLink(th, node)
		return true
	}
}

// finishLink publishes that this inserter will issue no further pointer
// swings for node — or, if the unique deleter already abandoned the tower
// to us (linkHandoff), severs the remaining links and retires it. Writing
// the flag is safe even though the deleter may already have retired the
// node: the inserter entered its operation before the node was published,
// so the free is held until this operation exits. Only needed under
// reclamation.
func (s *List) finishLink(th core.Thread, node core.Addr) {
	if s.pool == nil {
		return
	}
	if th.CAS(node.Plus(fLinked), linkBusy, linkDone) {
		return
	}
	// Our swings have stopped, so one more find pass severs any link made
	// after the deleter's pass, and the tower is ours to retire.
	var preds, succs [MaxLevel]core.Addr
	s.find(th, keyOf(th, node), &preds, &succs)
	s.pool.Retire(th, node)
}

// maybeRetire hands the fully-unlinked tower to the pool. The caller won
// the bottom-level mark, so it is the unique deleter; a find pass has
// already unlinked every level it could reach. The remaining hazard is an
// in-flight Insert of this very node still linking upper levels: the
// linked flag only reads linkDone after the inserter's last swing, so
// observing it and then re-running find guarantees every link has been
// severed. If the inserter is still busy, retirement is handed to it via
// linkHandoff — exactly one of the two parties wins its CAS and retires.
func (s *List) maybeRetire(th core.Thread, node core.Addr, preds, succs *[MaxLevel]core.Addr) {
	if s.pool == nil {
		return
	}
	key := keyOf(th, node)
	if int(th.Load(node.Plus(fHeight))) > 1 {
		if th.Load(node.Plus(fLinked)) != linkDone {
			if th.CAS(node.Plus(fLinked), linkBusy, linkHandoff) {
				return // the inserter will sever its links and retire
			}
			// CAS failed: the inserter just finished and will never swing
			// again — retire here like the linkDone path.
		}
		s.find(th, key, preds, succs) // sever any links made before the flag
	}
	s.pool.Retire(th, node)
}

// Delete removes key, reporting whether it was present.
func (s *List) Delete(th core.Thread, key uint64) bool {
	s.enter(th)
	defer s.leave(th)
	var preds, succs [MaxLevel]core.Addr
	if !s.find(th, key, &preds, &succs) {
		return false
	}
	node := succs[0]
	height := int(th.Load(node.Plus(fHeight)))
	// Mark the upper levels top-down.
	for l := height - 1; l >= 1; l-- {
		for {
			nextW := th.Load(nextAddr(node, l))
			if isMarked(nextW) {
				break
			}
			s.swing(th, node, nextAddr(node, l), nextW, withMark(nextW))
		}
	}
	// Marking the bottom level decides who deleted the key.
	for {
		nextW := th.Load(nextAddr(node, 0))
		if isMarked(nextW) {
			return false
		}
		if s.swing(th, node, nextAddr(node, 0), nextW, withMark(nextW)) {
			s.find(th, key, &preds, &succs) // physical unlink via helping
			s.maybeRetire(th, node, &preds, &succs)
			return true
		}
	}
}

// Contains reports whether key is present (wait-free traversal; the bottom
// level is authoritative, upper levels only steer the descent).
func (s *List) Contains(th core.Thread, key uint64) bool {
	s.enter(th)
	defer s.leave(th)
	pred := s.head
	var curr core.Addr
	for level := MaxLevel - 1; level >= 0; level-- {
		curr = core.Addr(clearMark(th.Load(nextAddr(pred, level))))
		for keyOf(th, curr) < key {
			pred = curr
			curr = core.Addr(clearMark(th.Load(nextAddr(curr, level))))
		}
	}
	return keyOf(th, curr) == key && !isMarked(th.Load(nextAddr(curr, 0)))
}

// Keys enumerates the set in order while quiescent.
func (s *List) Keys(th core.Thread) []uint64 {
	var out []uint64
	curr := core.Addr(clearMark(th.Load(nextAddr(s.head, 0))))
	for keyOf(th, curr) != tailKey {
		if !isMarked(th.Load(nextAddr(curr, 0))) {
			out = append(out, keyOf(th, curr))
		}
		curr = core.Addr(clearMark(th.Load(nextAddr(curr, 0))))
	}
	return out
}
