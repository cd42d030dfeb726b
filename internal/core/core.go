// Package core defines the memory-tagging (MemTags) programming model from
// "Memory Tagging: Minimalist Synchronization for Scalable Concurrent Data
// Structures" (Alistarh, Brown, Singhal; SPAA 2020).
//
// The package holds everything a data structure or a harness may assume
// about a memory, and nothing about how one is built:
//
//   - the address model of the simulated, cache-line-granular space and
//     MaxCores, the largest machine any backend supports (core.go);
//   - Memory and Thread, through which every structure issues loads, stores
//     and tag operations: the paper's seven instructions plus Max_Tags, and
//     the write mark (MarkWrite/UnmarkWrites) that lets a multi-word writer
//     keep tagged readers from seeing half its stores;
//   - the optional capabilities a harness may assert on a Memory or Thread,
//     each named once, and RunPhase, the one way to run a parallel phase
//     over a Memory (capability.go);
//   - the event vocabulary and Tracer both backends report in (event.go);
//   - Fallback, the HLE-style controller pairing a tagged fast path with a
//     software slow path (fallback.go).
//
// Tags are advisory: a validation may fail spuriously and never succeeds
// wrongly. internal/coretest states the contract as executable must and may
// properties and runs it against every Memory in the tree.
//
// Two backends implement the interfaces:
//
//   - internal/machine: a multicore cache simulator with a MESI-style
//     directory, private L1/L2 models, and a cycle/energy cost model. Tags
//     live at the L1 level exactly as the paper proposes, including spurious
//     evictions and tag-set overflow.
//   - internal/vtags: a fast software emulation based on per-line version
//     numbers, used for large-scale stress testing and as an ablation.
//
// Data structures written against core.Thread run unchanged on either.
package core

// Fundamental sizes of the simulated machine. These mirror the paper's
// Graphite configuration: 64-byte cache lines, 8-byte words.
const (
	// WordSize is the size in bytes of one simulated memory word. All
	// loads and stores operate on whole words.
	WordSize = 8
	// LineSize is the size in bytes of one cache line, the granularity of
	// coherence and of tagging.
	LineSize = 64
	// WordsPerLine is the number of words in one cache line.
	WordsPerLine = LineSize / WordSize
)

// MaxCores is the largest number of simulated cores any backend supports.
// The paper's Graphite evaluation stops at 64 flat cores; the simulator
// scales past it (sharded hot state, two-level topology), sizing its
// directory's sharer and tagger sets to the configured core count. 512 is
// large enough for the NUMA sweeps.
const MaxCores = 512

// Addr is a byte address in the simulated address space. All accesses must
// be word-aligned. Address 0 is never allocated and serves as the nil
// pointer for simulated data structures.
type Addr uint64

// NilAddr is the simulated null pointer.
const NilAddr Addr = 0

// Line identifies one cache line of the simulated address space.
type Line uint64

// Line returns the cache line containing the address.
func (a Addr) Line() Line { return Line(a / LineSize) }

// Word returns the word index of the address within the whole space.
func (a Addr) Word() uint64 { return uint64(a) / WordSize }

// Offset returns the byte offset of the address within its cache line.
func (a Addr) Offset() uint64 { return uint64(a) % LineSize }

// Plus returns the address advanced by n words.
func (a Addr) Plus(n int) Addr { return a + Addr(n*WordSize) }

// IsNil reports whether the address is the simulated null pointer.
func (a Addr) IsNil() bool { return a == NilAddr }

// LineSpan returns the inclusive range [first, last] of lines touched by
// the byte range [a, a+size), and reports whether the range is non-empty.
// It is the allocation-free form of LinesSpanned, used on the simulator
// hot path: lines in a span are always contiguous, so backends iterate
// `for l := first; l <= last; l++` instead of materializing a slice.
func LineSpan(a Addr, size int) (first, last Line, ok bool) {
	if size <= 0 {
		return 0, 0, false
	}
	return a.Line(), (a + Addr(size) - 1).Line(), true
}

// LinesSpanned returns the set of lines touched by the byte range
// [a, a+size). It is what AddTag uses to derive the lines backing an
// object, per the paper's AddTag(&node, size) semantics. It allocates the
// returned slice; hot paths should use LineSpan instead.
func LinesSpanned(a Addr, size int) []Line {
	first, last, ok := LineSpan(a, size)
	if !ok {
		return nil
	}
	lines := make([]Line, 0, last-first+1)
	for l := first; l <= last; l++ {
		lines = append(lines, l)
	}
	return lines
}

// Memory is a shared simulated address space with memory tagging. A Memory
// is created with a fixed number of threads (simulated cores); each OS-level
// worker goroutine must use its own Thread handle.
type Memory interface {
	// NumThreads returns the number of thread handles (simulated cores).
	NumThreads() int
	// Thread returns the handle for thread id in [0, NumThreads()).
	// The handle must only ever be used from a single goroutine at a time.
	Thread(id int) Thread
	// Alloc allocates the given number of words, aligned to a cache-line
	// boundary so that distinct objects never share a line (the paper maps
	// each node to a unique cache line to avoid false sharing). It is safe
	// to call from any goroutine. It panics if the space is exhausted.
	Alloc(words int) Addr
	// MaxTags returns the per-thread tag budget (the hardware Max_Tags
	// constant). Data structures whose tagging window exceeds it cannot
	// make progress on the fast path and must refuse construction.
	MaxTags() int
}

// Thread is a per-core handle through which a single goroutine issues
// memory and tag operations. The tag set is per-thread state, exactly as
// MemTags are per-core state in hardware.
type Thread interface {
	// ID returns the thread (simulated core) id.
	ID() int

	// Load reads the word at a.
	Load(a Addr) uint64
	// Store writes v to the word at a, invalidating remote copies of the
	// line (and therefore evicting remote tags on it).
	Store(a Addr, v uint64)
	// CAS atomically compares the word at a with old and, if equal, writes
	// new. It reports whether the swap happened. A successful CAS evicts
	// remote tags on the line exactly like Store; a failed one may (the
	// machine takes the line exclusive before comparing) or may not (vtags
	// bumps no version), so Validate on another thread may fail after a
	// remote CAS that failed.
	CAS(a Addr, old, new uint64) bool

	// AddTag tags every cache line backing the byte range [a, a+size).
	// It reports false if the tag set would exceed MaxTags, in which case
	// the line is not tagged and all subsequent validations fail until
	// ClearTagSet is called (graceful overflow handling, per the paper).
	// Tagging an already-tagged line is a no-op that reports true.
	AddTag(a Addr, size int) bool
	// RemoveTag untags every cache line backing [a, a+size). Lines in the
	// range that are not tagged are ignored. An eviction that was already
	// recorded is NOT forgotten: validation still fails until ClearTagSet.
	RemoveTag(a Addr, size int)
	// Validate reports whether no currently- or previously-tagged line has
	// been invalidated or evicted since it was tagged (and the tag set
	// never overflowed). The tag set is retained across validations so
	// that hand-over-hand tagging can validate repeatedly. It must fail
	// after a successful remote Store, CAS, VAS or IAS to a tagged line,
	// and may fail without one (a capacity eviction, a remote CAS that
	// failed): once failed it keeps failing until ClearTagSet.
	Validate() bool
	// VAS (validate-and-swap) atomically validates the tag set and, on
	// success, stores v at a. It reports whether the swap happened.
	VAS(a Addr, v uint64) bool
	// IAS (invalidate-and-swap) atomically validates the tag set,
	// invalidates every tagged line at all other cores (transient
	// marking), and stores v at a. It reports whether the swap happened.
	IAS(a Addr, v uint64) bool
	// ClearTagSet empties the tag set and resets eviction/overflow state.
	ClearTagSet()
	// TagCount returns the number of currently tagged lines.
	TagCount() int

	// MarkWrite marks every cache line backing [a, a+size) as being
	// written by this thread, until UnmarkWrites. Marking is a write as far
	// as remote tags go: a tag another thread took on the line before the
	// mark fails, and while the mark is held another thread's AddTag of
	// the line records a tag that fails Validate, VAS and IAS until that
	// thread's ClearTagSet. The marking thread's own tags are not affected,
	// and marking changes no data. A writer that marks its whole write set
	// before its first store and unmarks after its last is never seen half
	// done by a reader that validates its tags: a tag on a written line
	// fails unless it was taken after the unmark. At most one thread marks
	// a line at a time; the caller serializes its writers. Writers from
	// different serializing domains (two STMs over one Memory, say) must
	// never write a common line: the backends do not arbitrate a second
	// marker, and under the memtagcheck build tag one panics.
	MarkWrite(a Addr, size int)
	// UnmarkWrites drops every mark this thread holds.
	UnmarkWrites()

	// Alloc allocates words from the shared space, line-aligned. It is a
	// convenience equivalent to Memory.Alloc and may use a per-thread
	// arena internally.
	Alloc(words int) Addr
}
