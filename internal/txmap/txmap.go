// Package txmap implements a transactional ordered map — a red-black tree
// whose every field access goes through an STM transaction — over simulated
// memory. It is the Go equivalent of STAMP's rbtree-backed MAP_T, the table
// substrate of the Vacation benchmark the paper evaluates NOrec on.
//
// The tree is a classic CLRS red-black tree with parent pointers and a
// shared NIL sentinel. Under NOrec this is faithful to STAMP: writers are
// serialized by the global sequence lock anyway, so sentinel writes during
// delete fixup cost no more than any other write.
//
// A map made by NewHashed holds 2^bits such trees and sends each key to one
// of them by a hash. The trees' root words are packed eight to a line in
// one allocation and every tree shares the one sentinel, so a tree costs
// one word. A point operation reads only its own tree, so its read set
// shrinks with the trees' depth; ForEach visits the trees one after
// another, so the map is ordered only at bits 0, which New makes.
package txmap

import (
	"repro/internal/core"
	"repro/internal/reclaim"
	"repro/internal/stm"
)

// Node layout (words). The two child words are adjacent and indexed by
// side: a node's child on side d (0 left, 1 right) is word nLeft+d, so each
// rotation and fixup case is written once and its mirror is the same code
// with d and 1-d exchanged.
const (
	nKey    = 0
	nVal    = 1
	nLeft   = 2
	nParent = 4
	nColor  = 5
	nWords  = 6
)

// NodeWords is the reclamation pool object size for SetReclaim.
const NodeWords = nWords

const (
	red   uint64 = 0
	black uint64 = 1
)

// Map is a transactional map from uint64 keys to uint64 values, ordered
// when it holds one tree.
type Map struct {
	roots core.Addr // 1<<bits words, one per tree, each holding its root node address
	bits  uint      // log2 of the tree count
	nil_  core.Addr // NIL sentinel shared by every tree (black)
	pool  *reclaim.Pool
}

// SetReclaim wires a reclamation pool (object size nWords): Put allocates
// nodes from it (freed back on abort, when the node was never published)
// and a committed Delete retires the unlinked node. The TM must have the
// pool's domain attached (stm.TM.SetReclaim) so attempts are bracketed.
// Only call while quiescent, before operations.
func (m *Map) SetReclaim(p *reclaim.Pool) { m.pool = p }

// New creates an empty ordered map: one tree.
func New(mem core.Memory) *Map { return NewHashed(mem, 0) }

// NewHashed creates an empty map of 1<<bits trees; a key lives in tree
// TreeOf(key). Thread 0 performs the (non-transactional) initialization.
func NewHashed(mem core.Memory, bits uint) *Map {
	th := mem.Thread(0)
	m := &Map{roots: mem.Alloc(1 << bits), bits: bits}
	m.nil_ = th.Alloc(nWords)
	th.Store(m.nil_.Plus(nColor), black)
	for i := 0; i < 1<<bits; i++ {
		th.Store(m.roots.Plus(i), uint64(m.nil_))
	}
	return m
}

// TreeOf returns the tree that holds key: the top bits of its Fibonacci
// hash, so runs of keys with equal low bits (even keys, say) still spread
// over every tree. At bits 0 it is 0. (A Go shift by 64 yields 0.)
func (m *Map) TreeOf(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> (64 - m.bits)) }

// root returns the address of the root word of key's tree.
func (m *Map) root(key uint64) core.Addr { return m.roots.Plus(m.TreeOf(key)) }

func (m *Map) node(tx *stm.Tx, n core.Addr, f int) uint64   { return tx.Read(n.Plus(f)) }
func (m *Map) set(tx *stm.Tx, n core.Addr, f int, v uint64) { tx.Write(n.Plus(f), v) }

func (m *Map) kid(tx *stm.Tx, n core.Addr, d int) core.Addr       { return core.Addr(m.node(tx, n, nLeft+d)) }
func (m *Map) setKid(tx *stm.Tx, n core.Addr, d int, c core.Addr) { m.set(tx, n, nLeft+d, uint64(c)) }
func (m *Map) parent(tx *stm.Tx, n core.Addr) core.Addr           { return core.Addr(m.node(tx, n, nParent)) }
func (m *Map) color(tx *stm.Tx, n core.Addr) uint64               { return m.node(tx, n, nColor) }
func (m *Map) rootNode(tx *stm.Tx, r core.Addr) core.Addr         { return core.Addr(tx.Read(r)) }

// dir is the side of a node keyed k that a search for key takes.
func dir(key, k uint64) int {
	if key < k {
		return 0
	}
	return 1
}

// side returns the side of p that holds child n. It reads p's child on side
// first, and takes n to be on the other side if it is not there.
func (m *Map) side(tx *stm.Tx, p, n core.Addr, first int) int {
	if n == m.kid(tx, p, first) {
		return first
	}
	return 1 - first
}

// find descends from the root of the tree whose root word is r toward key.
// It returns the node holding key (nil_ if there is none) and the last node
// above it (nil_ at the root).
func (m *Map) find(tx *stm.Tx, r core.Addr, key uint64) (n, parent core.Addr) {
	n, parent = m.rootNode(tx, r), m.nil_
	for n != m.nil_ {
		k := m.node(tx, n, nKey)
		if key == k {
			break
		}
		n, parent = m.kid(tx, n, dir(key, k)), n
	}
	return n, parent
}

// Get returns the value for key and whether it is present.
func (m *Map) Get(tx *stm.Tx, key uint64) (uint64, bool) {
	n, _ := m.find(tx, m.root(key), key)
	if n == m.nil_ {
		return 0, false
	}
	return m.node(tx, n, nVal), true
}

// Put inserts key with value, or updates the value if present. It reports
// whether the key was newly inserted.
func (m *Map) Put(tx *stm.Tx, key, val uint64, th core.Thread) bool {
	r := m.root(key)
	x, y := m.find(tx, r, key)
	if x != m.nil_ {
		m.set(tx, x, nVal, val)
		return false
	}
	z := m.alloc(tx, th)
	// Fresh node: initialize through the transaction so an abort is
	// harmless (the node is simply garbage) and the commit publishes it.
	m.set(tx, z, nKey, key)
	m.set(tx, z, nVal, val)
	m.setKid(tx, z, 0, m.nil_)
	m.setKid(tx, z, 1, m.nil_)
	m.set(tx, z, nParent, uint64(y))
	m.set(tx, z, nColor, red)
	if y == m.nil_ {
		tx.Write(r, uint64(z))
	} else {
		m.setKid(tx, y, dir(key, m.node(tx, y, nKey)), z)
	}
	m.insertFixup(tx, r, z)
	return true
}

// alloc returns a fresh node for tx to initialize. The abort hook captures
// z, which is assigned once, so a map without a pool allocates nothing on
// the host heap here.
func (m *Map) alloc(tx *stm.Tx, th core.Thread) core.Addr {
	if m.pool == nil {
		return th.Alloc(nWords)
	}
	z := m.pool.Alloc(th)
	// Writes are buffered, so an aborted attempt never published z: hand
	// it straight back to the free list.
	tx.OnAbort(func() { m.pool.FreePrivate(th, z) })
	return z
}

// relink points up (or the root word r, when up is nil_) at v in place of
// its child u, reading up's child on side first to find u.
func (m *Map) relink(tx *stm.Tx, r, up, u, v core.Addr, first int) {
	if up == m.nil_ {
		tx.Write(r, uint64(v))
		return
	}
	m.setKid(tx, up, m.side(tx, up, u, first), v)
}

// rotate turns x down to side d: x's child on the other side, y, takes
// x's place, and x becomes y's child on side d (d = 0 is a left rotation).
func (m *Map) rotate(tx *stm.Tx, r, x core.Addr, d int) {
	y := m.kid(tx, x, 1-d)
	yd := m.kid(tx, y, d)
	m.setKid(tx, x, 1-d, yd)
	if yd != m.nil_ {
		m.set(tx, yd, nParent, uint64(x))
	}
	xp := m.parent(tx, x)
	m.set(tx, y, nParent, uint64(xp))
	m.relink(tx, r, xp, x, y, d)
	m.setKid(tx, y, d, x)
	m.set(tx, x, nParent, uint64(y))
}

// insertFixup restores the red-black rules after z is linked in red. d is
// the side of zp in zpp; the uncle y is on the other side.
func (m *Map) insertFixup(tx *stm.Tx, r, z core.Addr) {
	for m.color(tx, m.parent(tx, z)) == red {
		zp := m.parent(tx, z)
		zpp := m.parent(tx, zp)
		d := m.side(tx, zpp, zp, 0)
		y := m.kid(tx, zpp, 1-d)
		if m.color(tx, y) == red {
			m.set(tx, zp, nColor, black)
			m.set(tx, y, nColor, black)
			m.set(tx, zpp, nColor, red)
			z = zpp
			continue
		}
		if z == m.kid(tx, zp, 1-d) {
			z = zp
			m.rotate(tx, r, z, d)
			zp = m.parent(tx, z)
			zpp = m.parent(tx, zp)
		}
		m.set(tx, zp, nColor, black)
		m.set(tx, zpp, nColor, red)
		m.rotate(tx, r, zpp, 1-d)
	}
	m.set(tx, m.rootNode(tx, r), nColor, black)
}

// Delete removes key, reporting whether it was present.
func (m *Map) Delete(tx *stm.Tx, key uint64) bool {
	r := m.root(key)
	z, _ := m.find(tx, r, key)
	if z == m.nil_ {
		return false
	}
	m.deleteNode(tx, r, z)
	if m.pool != nil {
		// The commit's writeBack unlinks z atomically under the global
		// sequence lock, making the committing deleter the unique
		// unlinker. z is assigned once, so the hook captures a copy and a
		// miss allocates nothing.
		th := tx.Thread()
		tx.OnCommit(func() { m.pool.Retire(th, z) })
	}
	return true
}

func (m *Map) transplant(tx *stm.Tx, r, u, v core.Addr) {
	up := m.parent(tx, u)
	m.relink(tx, r, up, u, v, 0)
	m.set(tx, v, nParent, uint64(up))
}

func (m *Map) minimum(tx *stm.Tx, n core.Addr) core.Addr {
	for {
		l := m.kid(tx, n, 0)
		if l == m.nil_ {
			return n
		}
		n = l
	}
}

func (m *Map) deleteNode(tx *stm.Tx, r, z core.Addr) {
	y := z
	yColor := m.color(tx, y)
	var x core.Addr
	if m.kid(tx, z, 0) == m.nil_ {
		x = m.kid(tx, z, 1)
		m.transplant(tx, r, z, x)
	} else if m.kid(tx, z, 1) == m.nil_ {
		x = m.kid(tx, z, 0)
		m.transplant(tx, r, z, x)
	} else {
		y = m.minimum(tx, m.kid(tx, z, 1))
		yColor = m.color(tx, y)
		x = m.kid(tx, y, 1)
		if m.parent(tx, y) == z {
			m.set(tx, x, nParent, uint64(y))
		} else {
			m.transplant(tx, r, y, x)
			zr := m.kid(tx, z, 1)
			m.setKid(tx, y, 1, zr)
			m.set(tx, zr, nParent, uint64(y))
		}
		m.transplant(tx, r, z, y)
		zl := m.kid(tx, z, 0)
		m.setKid(tx, y, 0, zl)
		m.set(tx, zl, nParent, uint64(y))
		m.set(tx, y, nColor, m.color(tx, z))
	}
	if yColor == black {
		m.deleteFixup(tx, r, x)
	}
}

// deleteFixup removes the extra black at x. d is the side of x in xp; the
// sibling w is on the other side.
func (m *Map) deleteFixup(tx *stm.Tx, r, x core.Addr) {
	for x != m.rootNode(tx, r) && m.color(tx, x) == black {
		xp := m.parent(tx, x)
		d := m.side(tx, xp, x, 0)
		w := m.kid(tx, xp, 1-d)
		if m.color(tx, w) == red {
			m.set(tx, w, nColor, black)
			m.set(tx, xp, nColor, red)
			m.rotate(tx, r, xp, d)
			xp = m.parent(tx, x)
			w = m.kid(tx, xp, 1-d)
		}
		if m.color(tx, m.kid(tx, w, d)) == black && m.color(tx, m.kid(tx, w, 1-d)) == black {
			m.set(tx, w, nColor, red)
			x = xp
			continue
		}
		if m.color(tx, m.kid(tx, w, 1-d)) == black {
			m.set(tx, m.kid(tx, w, d), nColor, black)
			m.set(tx, w, nColor, red)
			m.rotate(tx, r, w, 1-d)
			xp = m.parent(tx, x)
			w = m.kid(tx, xp, 1-d)
		}
		m.set(tx, w, nColor, m.color(tx, xp))
		m.set(tx, xp, nColor, black)
		m.set(tx, m.kid(tx, w, 1-d), nColor, black)
		m.rotate(tx, r, xp, d)
		x = m.rootNode(tx, r)
	}
	m.set(tx, x, nColor, black)
}

// ForEach calls fn for every key/value pair within the transaction: tree by
// tree in slot order, and each tree in ascending key order, so the whole
// walk is ascending at bits 0.
func (m *Map) ForEach(tx *stm.Tx, fn func(key, val uint64)) {
	for i := 0; i < 1<<m.bits; i++ {
		m.forTree(tx, i, fn)
	}
}

// forTree calls fn for every pair in tree i in ascending key order.
func (m *Map) forTree(tx *stm.Tx, i int, fn func(key, val uint64)) {
	var walk func(n core.Addr)
	walk = func(n core.Addr) {
		if n == m.nil_ {
			return
		}
		walk(m.kid(tx, n, 0))
		fn(m.node(tx, n, nKey), m.node(tx, n, nVal))
		walk(m.kid(tx, n, 1))
	}
	walk(m.rootNode(tx, m.roots.Plus(i)))
}

// Size counts the entries within the transaction.
func (m *Map) Size(tx *stm.Tx) int {
	n := 0
	m.ForEach(tx, func(_, _ uint64) { n++ })
	return n
}

// TreeSize counts the entries of tree i within the transaction.
func (m *Map) TreeSize(tx *stm.Tx, i int) int {
	n := 0
	m.forTree(tx, i, func(_, _ uint64) { n++ })
	return n
}
