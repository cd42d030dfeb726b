// Package machine implements the paper's hardware proposal: a multicore
// cache simulator with MESI-style directory coherence and memory tags kept
// at each core's L1, including validate-and-swap (VAS) and
// invalidate-and-swap (IAS).
//
// The simulator is functionally concurrent and timing-sampled: one real
// goroutine drives each simulated core, a per-line directory entry (with a
// mutex) is the coherence authority, and every event is priced by the
// Config cost model into per-core cycle and energy counters. The atomicity
// the paper obtains by "temporarily pausing the serving of new coherence
// requests" during validation is obtained here by locking the directory
// entries of all tagged lines (plus the VAS/IAS target) in address order.
//
// Presence in a core's cache hierarchy is authoritative in the directory's
// sharer mask; the per-core L1/L2 set-associative models decide only at
// which level an access hits and which victim a fill displaces. Remote
// invalidations therefore never touch a foreign cache model — they clear
// the directory bit, and the stale model entry is simply refilled on the
// owning core's next access.
package machine

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mem"
)

// dirEntry is the coherence authority for one cache line: a view of the
// line's slot in its directory chunk. The lock and owner live in the
// chunk's record array; the two core sets share a window of the chunk's
// mask array, each as wide as the machine's core count needs. The view is
// a pointer and a slice, 32 bytes: the compiler keeps a struct that size
// in registers, and copies a larger one through the stack on every access.
type dirEntry struct {
	*dirRecord
	masks []uint64 // sharers, then taggers
}

// sharers is the set of cores holding the line anywhere in their private
// hierarchy (L1 or L2).
func (d dirEntry) sharers() coreBits {
	w := len(d.masks) / 2
	return d.masks[:w:w]
}

// taggers is the set of cores currently tagging the line.
func (d dirEntry) taggers() coreBits { return d.masks[len(d.masks)/2:] }

// dirRecord is the fixed-size part of a line's directory state.
type dirRecord struct {
	mu sync.Mutex
	// owner is the core holding the line in Modified/Exclusive state, or
	// -1. Invariant: owner >= 0 implies sharers == {owner}.
	owner int16
	// marked is the core holding a write mark on the line (MarkWrite), or
	// -1. Another core's AddTag of a marked line records a failed tag.
	marked int16
}

// dirChunk mirrors one mem.Space chunk's worth of directory state.
// Directory chunks are installed on first touch, like the space's word
// chunks: experiments configure large address spaces but touch few lines,
// and zeroing one directory entry per possible line dominated Machine
// construction cost.
type dirChunk struct {
	// masks holds 2*w words per line, w = Machine.setWords: the line's
	// sharer set, then its tagger set.
	masks   []uint64
	records [mem.ChunkLines]dirRecord
}

// Machine is a simulated multicore with memory tagging.
type Machine struct {
	cfg   Config
	space *mem.Space
	dir   []atomic.Pointer[dirChunk]
	// setWords is w = ceil(Cores/64), the width in words of every core set
	// the machine keeps: the directory's sharer and tagger masks cost 16*w
	// bytes per touched line.
	setWords int
	// sockets/coresPerSocket realize Config.Sockets (1 when flat); sockMask
	// holds each socket's core membership, precomputed so the coherence
	// pricing can test "any sharer on my socket?" with a word-wise AND.
	sockets        int
	coresPerSocket int
	sockMask       []coreBits
	threads        []*Thread
	clock          clockSync
	tracer         core.Tracer
	gate           Gate
	// issuing counts in-flight memory/tag operations when the memtagcheck
	// build tag enables the quiescence guard (see guard_on.go); Snapshot
	// panics when it is non-zero. In default builds the counter is never
	// touched.
	issuing atomic.Int64
}

var _ core.Memory = (*Machine)(nil)

// New creates a machine. It panics on an invalid configuration, since
// configurations are experiment constants.
func New(cfg Config) *Machine {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	space := mem.NewSpace(cfg.MemBytes)
	m := &Machine{
		cfg:      cfg,
		space:    space,
		dir:      make([]atomic.Pointer[dirChunk], (space.NumLines()+mem.ChunkLines-1)/mem.ChunkLines),
		setWords: (cfg.Cores + 63) / 64,
	}
	m.sockets = cfg.Sockets
	if m.sockets < 1 {
		m.sockets = 1
	}
	m.coresPerSocket = cfg.Cores / m.sockets
	m.sockMask = make([]coreBits, m.sockets)
	for s := range m.sockMask {
		m.sockMask[s] = make(coreBits, m.setWords)
	}
	for c := 0; c < cfg.Cores; c++ {
		m.sockMask[c/m.coresPerSocket].add(c)
	}
	m.threads = make([]*Thread, cfg.Cores)
	for i := range m.threads {
		m.threads[i] = newThread(m, i)
	}
	return m
}

// socketOf returns the socket that core c belongs to. Cores are split
// contiguously: socket s owns cores [s*coresPerSocket, (s+1)*coresPerSocket).
func (m *Machine) socketOf(c int) int { return c / m.coresPerSocket }

// homeSocket returns the socket whose memory controller serves line l.
// Lines are interleaved across sockets at cache-line granularity, the
// usual default for a first-touch-free simulator.
func (m *Machine) homeSocket(l core.Line) int { return int(uint64(l) % uint64(m.sockets)) }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumThreads returns the number of simulated cores.
func (m *Machine) NumThreads() int { return len(m.threads) }

// Thread returns the handle for simulated core id.
func (m *Machine) Thread(id int) core.Thread { return m.threads[id] }

// Alloc allocates line-aligned words from the simulated space.
func (m *Machine) Alloc(words int) core.Addr { return m.space.Alloc(words) }

// MaxTags returns the per-core tag budget.
func (m *Machine) MaxTags() int { return m.cfg.MaxTags }

// AllocatedBytes reports how much simulated memory has been handed out.
func (m *Machine) AllocatedBytes() int { return m.space.AllocatedBytes() }

// dirAt returns line l's directory entry, installing its chunk on first
// touch.
func (m *Machine) dirAt(l core.Line) dirEntry {
	ci := uint64(l) / mem.ChunkLines
	if ci >= uint64(len(m.dir)) {
		panic(fmt.Sprintf("machine: line %d out of range (%d lines)", l, m.space.NumLines()))
	}
	c := m.dir[ci].Load()
	if c == nil {
		c = m.installDirChunk(ci)
	}
	i := int(uint64(l) % mem.ChunkLines)
	w := m.setWords
	return dirEntry{dirRecord: &c.records[i], masks: c.masks[2*w*i : 2*w*(i+1)]}
}

// installDirChunk materializes directory chunk ci with every entry
// unowned, losing the race gracefully if another core installs it first.
func (m *Machine) installDirChunk(ci uint64) *dirChunk {
	fresh := &dirChunk{masks: make([]uint64, 2*m.setWords*mem.ChunkLines)}
	for i := range fresh.records {
		fresh.records[i].owner = -1
		fresh.records[i].marked = -1
	}
	if m.dir[ci].CompareAndSwap(nil, fresh) {
		return fresh
	}
	return m.dir[ci].Load()
}

// DebugLine returns the directory state of a line for tests: the sharer
// cores in ascending order, the owner core (or -1), and the tagger cores in
// ascending order.
func (m *Machine) DebugLine(l core.Line) (sharers []int, owner int, taggers []int) {
	d := m.dirAt(l)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sharers().members(), int(d.owner), d.taggers().members()
}

// coreBits is a set of core ids in w = ceil(Cores/64) words: one line's
// sharer or tagger mask in a directory chunk, or one socket's membership.
// It is a view, so assigning one shares the words; directory sets are
// mutated only under their line's mutex.
type coreBits []uint64

func (s coreBits) has(c int) bool { return s[c>>6]&(1<<(c&63)) != 0 }
func (s coreBits) add(c int)      { s[c>>6] |= 1 << (c & 63) }
func (s coreBits) remove(c int)   { s[c>>6] &^= 1 << (c & 63) }

// only resets the set to exactly {c} (exclusive ownership).
func (s coreBits) only(c int) {
	clear(s)
	s.add(c)
}

func (s coreBits) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// anyOther reports whether s holds a core other than self, restricted to
// the cores of within when within is non-nil.
func (s coreBits) anyOther(self int, within coreBits) bool {
	for i, w := range s {
		if i == self>>6 {
			w &^= 1 << (self & 63)
		}
		if within != nil {
			w &= within[i]
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// next returns the smallest member >= from, or -1 when there is none.
// Removing members below from while iterating is safe:
//
//	for c := s.next(0); c >= 0; c = s.next(c + 1)
func (s coreBits) next(from int) int {
	wi := from >> 6
	if wi >= len(s) {
		return -1
	}
	if w := s[wi] >> (from & 63); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s); wi++ {
		if s[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(s[wi])
		}
	}
	return -1
}

// members returns the cores in s in ascending order.
func (s coreBits) members() []int {
	var out []int
	for c := s.next(0); c >= 0; c = s.next(c + 1) {
		out = append(out, c)
	}
	return out
}
