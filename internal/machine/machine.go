// Package machine implements the paper's hardware proposal: a multicore
// cache simulator with MESI-style directory coherence and memory tags kept
// at each core's L1, including validate-and-swap (VAS) and
// invalidate-and-swap (IAS).
//
// The simulator is functionally concurrent and timing-sampled: one real
// goroutine drives each simulated core, a per-line directory entry is the
// coherence authority, and every event is priced by the Config cost model
// into per-core cycle and energy counters. The atomicity the paper obtains
// by "temporarily pausing the serving of new coherence requests" during
// validation is obtained here by locking the directory entries of all
// tagged lines (plus the VAS/IAS target) in address order.
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
	"runtime"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/tagobs"
)

// dirEntry is the coherence authority for one cache line: a view of the
// line's slot in its directory chunk. The lock, owner and write mark share
// one word in the chunk's state array; the two core sets share a window of
// the chunk's mask array, each ceil(Cores/8) bytes. The view is a pointer
// and a slice, 32 bytes: the compiler keeps a struct that size in
// registers, and copies a larger one through the stack on every access.
type dirEntry struct {
	*dirState
	masks []byte // sharers, then taggers
}

// sharers is the set of cores holding the line anywhere in their private
// hierarchy (L1 or L2).
func (d dirEntry) sharers() coreBits {
	w := len(d.masks) / 2
	return d.masks[:w:w]
}

// taggers is the set of cores currently tagging the line.
func (d dirEntry) taggers() coreBits { return d.masks[len(d.masks)/2:] }

// dirState is the fixed-size part of a line's directory state, one word:
// the line lock in bit 0, then owner+1 and marked+1 in dirFieldBits each,
// so the zero word is an unlocked line with no owner and no mark.
//
//   - owner is the core holding the line in Modified/Exclusive state, or
//     -1. Invariant: owner >= 0 implies sharers == {owner}.
//   - marked is the core holding a write mark on the line (MarkWrite), or
//     -1. Another core's AddTag of a marked line records a failed tag.
//
// Only the lock holder changes the owner and mark fields, and only in the
// atomic store that releases the lock (release), so a change costs no
// atomic beyond the unlock itself. Every access goes through sync/atomic's
// functions: the atomic.Uint32 methods would cost lock's fast path 8 more
// units of inlining budget, past Go's 80. The struct must stay 4 bytes: it
// exists once per touched line.
type dirState struct {
	word uint32
}

const (
	dirLockBit   = 1
	dirFieldBits = 10
	dirFieldMask = 1<<dirFieldBits - 1
	dirOwnerAt   = 1
	dirMarkedAt  = dirOwnerAt + dirFieldBits
	// dirLockSpins is how many times a waiter retries a held lock before
	// it yields the processor to let the holder run.
	dirLockSpins = 8
)

// Every core id, plus one, fits a field; the constant overflows otherwise.
const _ uint = dirFieldMask - core.MaxCores

// lock takes the line lock: one load and one CAS that expects the loaded
// word with the lock bit clear, so it fails on a held lock and lockSlow
// takes over. The fast path inlines, as sync.Mutex's does.
func (s *dirState) lock() {
	if w := atomic.LoadUint32(&s.word) &^ dirLockBit; !atomic.CompareAndSwapUint32(&s.word, w, w|dirLockBit) {
		s.lockSlow()
	}
}

// lockSlow retries the lock, yielding after dirLockSpins tries so that a
// descheduled holder (on one P, say) gets to run and release.
//
//go:noinline
func (s *dirState) lockSlow() {
	for spins := 0; ; {
		w := atomic.LoadUint32(&s.word)
		if w&dirLockBit == 0 {
			if atomic.CompareAndSwapUint32(&s.word, w, w|dirLockBit) {
				return
			}
			continue
		}
		if spins++; spins > dirLockSpins {
			runtime.Gosched()
		}
	}
}

// unlock releases the line lock, leaving the owner and mark as they were:
// the holder's bit 0 is set, so subtracting one clears it and nothing
// else, in a single atomic add.
func (s *dirState) unlock() { atomic.AddUint32(&s.word, ^uint32(0)) }

// release releases the line lock and writes the line's owner and mark in
// the same atomic store. Nobody else writes the word while the lock is
// held, so the holder's section reads the values it found at lock time.
func (s *dirState) release(owner, marked int) {
	atomic.StoreUint32(&s.word, uint32(owner+1)<<dirOwnerAt|uint32(marked+1)<<dirMarkedAt)
}

func (s *dirState) owner() int  { return s.field(dirOwnerAt) }
func (s *dirState) marked() int { return s.field(dirMarkedAt) }

func (s *dirState) field(at uint) int { return int(atomic.LoadUint32(&s.word)>>at&dirFieldMask) - 1 }

// dirChunk mirrors one mem.Space chunk's worth of directory state.
// Directory chunks are installed on first touch, like the space's word
// chunks: experiments configure large address spaces but touch few lines,
// and zeroing one directory entry per possible line dominated Machine
// construction cost.
type dirChunk struct {
	// masks holds 2*Machine.setBytes bytes per line, packed with no
	// padding: the line's sharer set, then its tagger set. The states stay
	// a separate array, so a lock word never shares a host word with a set.
	masks  []byte
	states [mem.ChunkLines]dirState
}

// Machine is a simulated multicore with memory tagging.
type Machine struct {
	cfg   Config
	space *mem.Space
	dir   []atomic.Pointer[dirChunk]
	// setBytes is ceil(Cores/8), the width of every core set the machine
	// keeps: the directory's sharer and tagger masks cost 2*setBytes bytes
	// per touched line.
	setBytes int
	// sockets/coresPerSocket realize Config.Sockets (1 when flat); sockMask
	// holds each socket's core membership, precomputed so the coherence
	// pricing can test "any sharer on my socket?" with a byte-wise AND.
	sockets        int
	coresPerSocket int
	sockMask       []coreBits
	threads        []*Thread
	clock          clockSync
	gate           Gate
	// Hooks holds the tracer and the per-core telemetry and reclamation
	// attachments (SetTracer, SetTelemetry, SetReclaim); each core reports
	// to them through its tagobs.Observer.
	tagobs.Hooks
	// issuing counts in-flight memory/tag operations when the memtagcheck
	// build tag arms the quiescence guard (core.Checked); Snapshot
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
		setBytes: (cfg.Cores + 7) / 8,
	}
	m.sockets = cfg.Sockets
	if m.sockets < 1 {
		m.sockets = 1
	}
	m.coresPerSocket = cfg.Cores / m.sockets
	m.sockMask = make([]coreBits, m.sockets)
	for s := range m.sockMask {
		m.sockMask[s] = make(coreBits, m.setBytes)
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
	w := m.setBytes
	return dirEntry{dirState: &c.states[i], masks: c.masks[2*w*i : 2*w*(i+1)]}
}

// installDirChunk materializes directory chunk ci with every entry
// unowned (the zero state), losing the race gracefully if another core
// installs it first.
func (m *Machine) installDirChunk(ci uint64) *dirChunk {
	fresh := &dirChunk{masks: make([]byte, 2*m.setBytes*mem.ChunkLines)}
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
	d.lock()
	defer d.unlock()
	return d.sharers().members(), d.owner(), d.taggers().members()
}

// coreBits is a set of core ids in ceil(Cores/8) bytes, core c at bit c&7
// of byte c>>3: one line's sharer or tagger mask in a directory chunk, or
// one socket's membership. It is a view, so assigning one shares the bytes;
// directory sets are mutated only under their line's lock.
//
// Neighbouring lines' sets share host words in the chunk's mask array, and
// each line's bytes are written under that line's lock alone. A byte is its
// own memory location, so that is race-free only while every write stays
// byte-wide: never widen a set write to a word-wide read-modify-write (a
// uint64 view of the array, or a clear rounded up to whole words), which
// would rewrite a neighbour's bytes outside the neighbour's lock.
type coreBits []byte

func (s coreBits) has(c int) bool { return s[c>>3]&(1<<(c&7)) != 0 }
func (s coreBits) add(c int)      { s[c>>3] |= 1 << (c & 7) }
func (s coreBits) remove(c int)   { s[c>>3] &^= 1 << (c & 7) }

// only resets the set to exactly {c} (exclusive ownership).
func (s coreBits) only(c int) {
	clear(s)
	s.add(c)
}

func (s coreBits) empty() bool {
	for _, b := range s {
		if b != 0 {
			return false
		}
	}
	return true
}

// anyOther reports whether s holds a core other than self, restricted to
// the cores of within when within is non-nil.
func (s coreBits) anyOther(self int, within coreBits) bool {
	for i, b := range s {
		if i == self>>3 {
			b &^= 1 << (self & 7)
		}
		if within != nil {
			b &= within[i]
		}
		if b != 0 {
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
	i := from >> 3
	if i >= len(s) {
		return -1
	}
	if b := s[i] >> (from & 7); b != 0 {
		return from + bits.TrailingZeros8(b)
	}
	for i++; i < len(s); i++ {
		if s[i] != 0 {
			return i<<3 + bits.TrailingZeros8(s[i])
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
