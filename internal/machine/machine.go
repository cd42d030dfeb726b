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
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mem"
)

// dirEntry is the coherence authority for one cache line.
type dirEntry struct {
	mu sync.Mutex
	// sharers is the set of cores holding the line anywhere in their
	// private hierarchy (L1 or L2). A core.CoreSet rather than a uint64
	// mask, so the directory scales past 64 cores.
	sharers core.CoreSet
	// owner is the core holding the line in Modified/Exclusive state, or
	// -1. Invariant: owner >= 0 implies sharers == {owner}.
	owner int16
	// taggers is the set of cores currently tagging this line.
	taggers core.CoreSet
}

// dirChunk mirrors one mem.Space chunk's worth of directory entries.
// Directory chunks are installed on first touch, like the space's word
// chunks: experiments configure large address spaces but touch few lines,
// and zeroing one directory entry per possible line dominated Machine
// construction cost.
type dirChunk [mem.ChunkLines]dirEntry

// Machine is a simulated multicore with memory tagging.
type Machine struct {
	cfg   Config
	space *mem.Space
	dir   []atomic.Pointer[dirChunk]
	// sockets/coresPerSocket realize Config.Sockets (1 when flat); sockMask
	// holds each socket's core membership, precomputed so the coherence
	// pricing can test "any sharer on my socket?" with a word-wise AND.
	sockets        int
	coresPerSocket int
	sockMask       []core.CoreSet
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
		cfg:   cfg,
		space: space,
		dir:   make([]atomic.Pointer[dirChunk], (space.NumLines()+mem.ChunkLines-1)/mem.ChunkLines),
	}
	m.sockets = cfg.Sockets
	if m.sockets < 1 {
		m.sockets = 1
	}
	m.coresPerSocket = cfg.Cores / m.sockets
	m.sockMask = make([]core.CoreSet, m.sockets)
	for c := 0; c < cfg.Cores; c++ {
		m.sockMask[c/m.coresPerSocket].Add(c)
	}
	m.clock.shards = make([]clockShard, (cfg.Cores+clockShardCores-1)/clockShardCores)
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

func (m *Machine) dirAt(l core.Line) *dirEntry {
	ci := uint64(l) / mem.ChunkLines
	if ci >= uint64(len(m.dir)) {
		panic(fmt.Sprintf("machine: line %d out of range (%d lines)", l, m.space.NumLines()))
	}
	c := m.dir[ci].Load()
	if c == nil {
		c = m.installDirChunk(ci)
	}
	return &c[uint64(l)%mem.ChunkLines]
}

// installDirChunk materializes directory chunk ci with every entry
// unowned, losing the race gracefully if another core installs it first.
func (m *Machine) installDirChunk(ci uint64) *dirChunk {
	fresh := new(dirChunk)
	for i := range fresh {
		fresh[i].owner = -1
	}
	if m.dir[ci].CompareAndSwap(nil, fresh) {
		return fresh
	}
	return m.dir[ci].Load()
}

// DebugLine returns the directory state of a line for tests: the sharer
// set, owner core (or -1), and tagger set. The sets are copies; mutating
// them does not touch the directory.
func (m *Machine) DebugLine(l core.Line) (sharers core.CoreSet, owner int, taggers core.CoreSet) {
	d := m.dirAt(l)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sharers, int(d.owner), d.taggers
}
