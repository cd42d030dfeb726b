// Package vtags is a software emulation of memory tagging based on
// per-line version numbers, in the spirit of OPTIK versioned locks.
//
// The paper notes there is "no immediate way to simulate MemTags in
// software"; this backend emulates the *semantics* (not the cost) so the
// data structures in this repository can be stress-tested at native speed
// and so the cost of a software emulation can be compared against the
// hardware model as an ablation.
//
// Every cache line has one atomic word: a 46-bit version, a lock bit, a
// write mark and a sharer mask. Writers bump the version while holding the
// lock bit. AddTag records (line, version); a tag is current while the
// version is unchanged. VAS/IAS lock the tagged lines plus the target in
// address order, re-check the versions, and commit — IAS additionally bumps
// the version of every tagged line, which is exactly the "invalidate all
// tagged lines at other cores" semantics (any other thread's tag on those
// lines now fails).
//
// Validate does not re-read the versions. Like the paper's L1, each thread
// keeps one flag that *writers* raise, found through a directory: the
// version shares its atomic word with a sharer mask, one bit per thread.
// AddTag turns the caller's bit on (a CAS only when it is off); a writer's
// bump takes every other thread's bit in the same CAS and then raises each
// taken thread's dirty flag. Validate is one load of that flag; only when it
// is set does the thread scan its versions, once. Four ordering rules make
// this exact:
//
//  1. A writer stores the data word before it bumps, so a tag sampled after
//     the bump never covers the old word.
//  2. Version bump and bit take are one CAS: "my bit is gone" and "my tag is
//     stale" are the same event, so a current tag always has its bit on.
//  3. The flags are raised after that CAS and before the line unlocks. A
//     Validate between the two answers as it would have between the word
//     store and the bump — a window the writer has always had; nothing the
//     writer does later can be observed first.
//  4. Validate clears the flag before it scans, never after: a bump landing
//     mid-scan re-raises it for the next call instead of being wiped.
//
// Sharer bits are sticky — RemoveTag and ClearTagSet leave them on, like a
// directory that is not told about silent evictions. Deregistering would be
// a second atomic RMW per tag per transaction; a stale bit instead costs its
// owner one scan when the line is next written, and can never fail a
// validation, because the scan only looks at tags the thread still holds.
// The lines every transaction re-reads (a structure's top levels) keep
// their bits on, so steady-state readers write nothing.
//
// A write mark (MarkWrite) is one more bit of the same word, set with a
// version bump and cleared without one, both under the line lock; an AddTag
// by another thread that sees it latches the tag set stale.
//
// The line lock is a bit of the word too, in the manner of an OPTIK lock:
// one CAS sets it, and the holder clears it with a CAS loop, because readers
// turn sharer bits on concurrently. Readers never look at it. A waiter spins
// a few times and then yields the processor, so a holder that was
// descheduled (on one P, say) gets to run and release.
//
// Unlike hardware tags there are no spurious evictions, so validation here
// fails only on real conflicts. There is also no ABA window within 2^46
// writes to one line during one tag's life: a line whose value was restored
// still fails validation because its version moved.
package vtags

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/tagobs"
)

// lineState is one line's version and writer lock. Line state is chunked
// and installed on first touch, mirroring mem.Space: emulated spaces are
// sized generously but sparsely touched, and zeroing per-line state for
// the whole space dominated Memory construction cost.
//
// word packs the line's version (high 46 bits), its lock (lockBit), its
// write mark (markBit) and its sharer mask (low sharerBits bits, bit i for
// thread id i). The version counts the writes to the line: every Store,
// successful CAS, VAS/IAS bump and MarkWrite adds exactly 1 while holding
// the lock, wrapping at 2^46 off the top of the word, so its parity means
// nothing. The mark is set (with a bump) and cleared under the lock by the
// one thread writing the line (MarkWrite/UnmarkWrites). Readers (AddTag,
// RemoveTag, a dirty Validate) load the word without the lock; "version
// unchanged since AddTag" is the whole tag check, and a tag taken while the
// mark is set is stale at birth. Only sharer bits change outside the lock,
// and only from off to on. The struct must stay 8 bytes: it exists once
// per touched line.
type lineState struct {
	word atomic.Uint64
}

const (
	sharerBits  = 16
	sharerMask  = 1<<sharerBits - 1
	markBit     = 1 << sharerBits
	lockBit     = markBit << 1
	lowMask     = sharerMask | markBit | lockBit // the bits that are not the version
	versionUnit = lockBit << 1
	// lockSpins is how many times a waiter re-reads a held lock before it
	// yields the processor to let the holder run.
	lockSpins = 8
)

// lock takes the line lock.
func (ls *lineState) lock() {
	for spins := 0; ; {
		w := ls.word.Load()
		if w&lockBit == 0 {
			if ls.word.CompareAndSwap(w, w|lockBit) {
				return
			}
			continue // a reader turned its bit on, or another writer won
		}
		if spins++; spins > lockSpins {
			runtime.Gosched()
		}
	}
}

// unlock releases the line lock, clearing the bits in off with it (markBit
// for UnmarkWrites, else 0).
func (ls *lineState) unlock(off uint64) {
	off |= lockBit
	for w := ls.word.Load(); !ls.word.CompareAndSwap(w, w&^off); w = ls.word.Load() {
	}
}

type lineChunk [mem.ChunkLines]lineState

// Memory is the versioned-emulation address space.
type Memory struct {
	space   *mem.Space
	lines   []atomic.Pointer[lineChunk]
	threads []*Thread
	maxTags int
	// Hooks holds the tracer and the per-thread telemetry and reclamation
	// attachments (SetTracer, SetTelemetry, SetReclaim); each thread
	// reports the tag-relevant subset of the machine's events to them
	// through its tagobs.Observer (see telemetry.go).
	tagobs.Hooks

	// tagOverflows counts tag-set overflow latches (AddTag past maxTags);
	// tagEvictions counts eviction latches (ForceTagEviction plus RemoveTag
	// observing a moved version). Both are cumulative and readable mid-run
	// (the serve flight recorder's stats snapshot); overflow and eviction
	// are rare, so the shared atomics cost nothing on the common path.
	tagOverflows atomic.Uint64
	tagEvictions atomic.Uint64
}

// TagStats returns the cumulative tag-set overflow and eviction latch
// counts across all threads. Safe to call at any time; both counters are
// monotonic.
func (m *Memory) TagStats() (overflows, evictions uint64) {
	return m.tagOverflows.Load(), m.tagEvictions.Load()
}

var _ core.Memory = (*Memory)(nil)

// Option configures a Memory.
type Option func(*Memory)

// WithMaxTags bounds the per-thread tag set, mirroring the hardware
// MaxTags constant. The default is 32.
func WithMaxTags(n int) Option { return func(m *Memory) { m.maxTags = n } }

// New creates an emulated space of the given size with one handle per
// thread.
func New(bytes, threads int, opts ...Option) *Memory {
	space := mem.NewSpace(bytes)
	m := &Memory{
		space:   space,
		lines:   make([]atomic.Pointer[lineChunk], (space.NumLines()+mem.ChunkLines-1)/mem.ChunkLines),
		maxTags: 32,
	}
	for _, o := range opts {
		o(m)
	}
	m.threads = make([]*Thread, threads)
	for i := range m.threads {
		m.threads[i] = newThread(m, i)
	}
	return m
}

func newThread(m *Memory, id int) *Thread {
	// The tag set is bounded by maxTags and the commit lock set by
	// maxTags+1; sizing the reused buffers up front keeps every memory/tag
	// operation allocation-free.
	t := &Thread{
		m:       m,
		id:      id,
		arena:   mem.NewArena(m.space),
		tags:    make([]tagEntry, 0, m.maxTags),
		lockBuf: make([]tagEntry, 0, m.maxTags+1),
		marks:   make([]*lineState, 0, 8),
	}
	t.obs.Bind(&m.Hooks, id, &t.ticks)
	if id >= 0 && id < sharerBits {
		t.bit = 1 << id
	} else {
		// No sharer bit (a spare handle, or more threads than the mask is
		// wide): no writer can find this thread, so its flag stays raised
		// and every Validate scans.
		t.dirty.Store(1)
	}
	return t
}

// lineAt returns line l's state, installing its chunk on first touch: two
// dependent loads (chunk pointer, then the state) plus the index arithmetic.
// Only AddTag, Store, CAS and an untagged commit target pay it; a chunk is
// installed once (CAS from nil) and never replaced or freed while the Memory
// lives, so the pointer is stable and tagEntry caches it — every later
// per-tag step is one dependent load through the entry.
func (m *Memory) lineAt(l core.Line) *lineState {
	ci := uint64(l) / mem.ChunkLines
	c := m.lines[ci].Load()
	if c == nil {
		c = m.installLineChunk(ci)
	}
	return &c[uint64(l)%mem.ChunkLines]
}

// installLineChunk materializes line-state chunk ci, losing the race
// gracefully if another thread installs it first.
func (m *Memory) installLineChunk(ci uint64) *lineChunk {
	fresh := new(lineChunk)
	if m.lines[ci].CompareAndSwap(nil, fresh) {
		return fresh
	}
	return m.lines[ci].Load()
}

// NumThreads returns the number of thread handles.
func (m *Memory) NumThreads() int { return len(m.threads) }

// Thread returns handle id.
func (m *Memory) Thread(id int) core.Thread { return m.threads[id] }

// SpareThread returns an auxiliary handle outside the counted thread set,
// for harness controllers (the fallback Mode-line flipper) that need a
// coherent participant without consuming one of the workload's handles.
// The emulation has no per-thread hardware state, so the handle is just
// another Thread with id -1. The contract (core.SpareThreader) promises
// only Load/Store/CAS/Alloc on it — the machine's spare panics on tag
// operations. This one happens to run them, with no sharer bit, which is
// how sharers_test.go reaches Validate's id >= 16 slow path; nothing
// outside this package may rely on that.
func (m *Memory) SpareThread() core.Thread { return newThread(m, -1) }

// Alloc allocates line-aligned words.
func (m *Memory) Alloc(words int) core.Addr { return m.space.Alloc(words) }

// MaxTags returns the per-thread tag budget.
func (m *Memory) MaxTags() int { return m.maxTags }

// Thread is one emulated core's handle.
type Thread struct {
	m  *Memory
	id int
	// arena is the thread's private allocation extent over the shared
	// space: the emulation's hottest global lock used to be the shared
	// allocation mutex, and the arena stripes it away (extent refills are
	// one shared atomic each).
	arena *mem.Arena

	tags []tagEntry
	// held is a one-word Bloom filter over the tagged lines (bit line%64),
	// reset by ClearTagSet only: a clear bit proves the line is not tagged,
	// so the common membership miss skips the O(tags) scan.
	held uint64
	// bit is this thread's sharer bit, zero when it has none.
	bit uint64
	// lockBuf is scratch for the sorted line set locked by commit, reused
	// across attempts (the machine backend's Thread.lockSet analogue).
	lockBuf  []tagEntry
	overflow bool
	// evicted latches a conflict or forced eviction observed on a line
	// whose tag has since been dropped (RemoveTag) or targeted
	// (ForceTagEviction): like the hardware's evicted set, it is not
	// forgotten until ClearTagSet even though the entry itself is gone.
	evicted bool
	// stale latches a version scan that found a moved line (the scan
	// consumed the dirty flag that prompted it, so without the latch the
	// next Validate would pass), or a tag taken on a line another thread
	// had marked.
	stale bool
	// marks holds the lines this thread has marked (MarkWrite), each once.
	marks []*lineState

	// ticks is the thread's logical clock: one per memory/tag operation
	// (the emulation's analogue of the machine's cycle counter). fails
	// counts validation/commit failures. Both feed OpClock.
	ticks uint64
	fails uint64
	// obs reports this thread's tag events to the memory's tracer,
	// telemetry and reclamation hooks, stamped with ticks.
	obs tagobs.Observer

	// dirty is raised by any writer that took this thread's sharer bit off
	// a line, and lowered only by the owner (Validate). It is the one word
	// of a Thread other threads write, so it sits on host cache lines of
	// its own, whatever the allocation's alignment.
	_     [64]byte
	dirty atomic.Uint32
	_     [60]byte
}

// tagEntry is one tagged line: the line state resolved at AddTag time (see
// lineAt for why the pointer stays valid) and the version recorded then, in
// place (the line's word with the sharer and mark bits masked off).
type tagEntry struct {
	ls      *lineState
	version uint64
	line    core.Line
}

// current reports whether the line is unwritten since the tag was recorded.
func (e *tagEntry) current() bool { return e.ls.word.Load()&^lowMask == e.version }

var _ core.Thread = (*Thread)(nil)

// ID returns the thread id.
func (t *Thread) ID() int { return t.id }

// Alloc allocates line-aligned words from the thread's private arena.
func (t *Thread) Alloc(words int) core.Addr { return t.arena.Alloc(words) }

// Load reads the word at a.
func (t *Thread) Load(a core.Addr) uint64 {
	t.ticks++
	return t.m.space.AtomicRead(a)
}

// Store writes v at a and bumps the line version (invalidating tags).
func (t *Thread) Store(a core.Addr, v uint64) {
	t.ticks++
	ls := t.m.lineAt(a.Line())
	ls.lock()
	t.m.space.AtomicWrite(a, v)
	t.bumpLocked(ls, t.tagIndex(a.Line()), 0)
	ls.unlock(0)
}

// CAS compares-and-swaps the word at a, bumping the version on success.
func (t *Thread) CAS(a core.Addr, old, new uint64) bool {
	t.ticks++
	ls := t.m.lineAt(a.Line())
	ls.lock()
	ok := t.m.space.Read(a) == old
	if ok {
		t.m.space.AtomicWrite(a, new)
		t.bumpLocked(ls, t.tagIndex(a.Line()), 0)
	}
	ls.unlock(0)
	return ok
}

// bumpLocked publishes a write to the line whose lock the caller holds,
// after the data word is stored (MarkWrite stores none): one CAS adds 1 to
// the version and takes every other thread's sharer bit, then each taken
// thread's dirty flag is raised.
// ti is the index of the caller's own tag on the line, or -1. An own tag is
// re-recorded at the new version with the own bit on — like hardware, a
// core's write neither invalidates its own tag nor notifies itself — and
// without one the own bit is left as found. An own tag another thread's
// write already moved latches stale first, as the hardware's eviction latch
// would have: re-recording it would hide that write. mark is OR-ed into the
// new word (markBit from MarkWrite, else 0). The CAS can lose only to a
// reader turning its bit on. The caller releases the lock afterwards, so the
// flags are up before it does (ordering rule 3).
func (t *Thread) bumpLocked(ls *lineState, ti int, mark uint64) {
	var own uint64
	if ti >= 0 {
		own = t.bit
	}
	for {
		w := ls.word.Load()
		taken := w & sharerMask &^ t.bit
		nw := (w+versionUnit)&^sharerMask | w&t.bit | own | mark
		if !ls.word.CompareAndSwap(w, nw) {
			continue
		}
		if ti >= 0 {
			if w&^lowMask != t.tags[ti].version {
				t.stale = true
			}
			t.tags[ti].version = nw &^ lowMask
		}
		for ; taken != 0; taken &= taken - 1 {
			t.m.threads[bits.TrailingZeros64(taken)].dirty.Store(1)
		}
		return
	}
}

// AddTag records the current version of every line of [a, a+size) and makes
// sure the thread's sharer bit is on at that version.
func (t *Thread) AddTag(a core.Addr, size int) bool {
	t.ticks++
	first, last, ok := core.LineSpan(a, size)
	if !ok {
		return true
	}
	for l := first; l <= last; l++ {
		if t.tagIndex(l) >= 0 {
			continue
		}
		if len(t.tags) >= t.m.maxTags {
			if !t.overflow {
				t.m.tagOverflows.Add(1)
			}
			t.overflow = true
			return false
		}
		// One load gives the version and "is my bit on"; a thread with no bit
		// never enters the loop. The recorded version is the one the bit was
		// seen (or turned) on at, so a later bump must take the bit.
		ls := t.m.lineAt(l)
		w := ls.word.Load()
		for w&t.bit != t.bit && !ls.word.CompareAndSwap(w, w|t.bit) {
			w = ls.word.Load()
		}
		if w&markBit != 0 && !t.marking(ls) {
			t.stale = true // another thread is mid-write on the line
		}
		t.tags = append(t.tags, tagEntry{ls: ls, version: w &^ lowMask, line: l})
		t.held |= 1 << (l % 64)
		t.obs.Tagged(l, len(t.tags))
	}
	return true
}

// RemoveTag drops tags on lines of [a, a+size). A conflict already
// observed is not forgotten (matching hardware semantics): RemoveTag checks
// the line's version before dropping it and latches a failure.
func (t *Thread) RemoveTag(a core.Addr, size int) {
	t.ticks++
	first, last, ok := core.LineSpan(a, size)
	if !ok {
		return
	}
	for l := first; l <= last; l++ {
		for i, e := range t.tags {
			if e.line == l {
				if !e.current() {
					if !t.evicted {
						t.m.tagEvictions.Add(1)
					}
					t.evicted = true // latch failure like an eviction
				}
				t.tags = append(t.tags[:i], t.tags[i+1:]...)
				t.obs.Untagged(l)
				break
			}
		}
	}
}

// tagIndex returns the position of l's entry in the tag set, or -1. The
// Bloom word answers most misses; otherwise it scans newest-first: the
// common re-tag is of the line tagged last (a tree node's key and child
// pointer share a line), which then hits at once.
func (t *Thread) tagIndex(l core.Line) int {
	if t.held>>(l%64)&1 == 0 {
		return -1
	}
	for i := len(t.tags) - 1; i >= 0; i-- {
		if t.tags[i].line == l {
			return i
		}
	}
	return -1
}

// tagsCurrent reports whether every tagged line still has its recorded
// version.
func (t *Thread) tagsCurrent() bool {
	for i := range t.tags {
		if !t.tags[i].current() {
			return false
		}
	}
	return true
}

// Validate reports whether every tagged line still has its recorded
// version. No writer has taken one of this thread's sharer bits since the
// last scan unless dirty is set, and a current tag has its bit on, so a
// clear flag answers for the whole tag set.
func (t *Thread) Validate() bool {
	t.ticks++
	if t.dirty.Load() != 0 {
		t.rescan()
	}
	ok := !t.overflow && !t.evicted && !t.stale
	if !ok {
		t.fails++
	}
	t.obs.Validated(ok)
	return ok
}

// rescan is Validate's slow path: lower the flag, then compare every held
// tag's version, latching a mismatch. Lowering first is what keeps a bump
// that lands during the scan from being lost. A thread with no sharer bit
// keeps its flag up, and so always comes here.
func (t *Thread) rescan() {
	if t.bit != 0 {
		t.dirty.Store(0)
	}
	if !t.tagsCurrent() {
		t.stale = true
	}
}

// TagCount returns the number of tagged lines.
func (t *Thread) TagCount() int { return len(t.tags) }

// ForceTagEviction simulates a spurious capacity eviction of the named
// line: if l is currently tagged, validation fails until ClearTagSet,
// exactly as when hardware displaces that tagged line from L1. The
// emulation has no real capacity pressure, so this hook is how adversarial
// harnesses (internal/schedfuzz, internal/schedexplore) aim eviction
// pressure at specific tags — one node of a hand-over-hand window, say.
// It must be called from the goroutine owning the handle (or with the
// handle otherwise quiesced). A line that is not tagged — because the
// traversal window already slid past it — is left alone and false is
// reported.
func (t *Thread) ForceTagEviction(l core.Line) bool {
	if t.tagIndex(l) < 0 {
		return false
	}
	if !t.evicted {
		t.m.tagEvictions.Add(1)
	}
	t.evicted = true // latch failure, like a recorded eviction
	t.obs.Emit(core.EvTagEvicted, -1, l)
	return true
}

// TaggedLine returns the i'th tagged line in insertion order, so harnesses
// can aim ForceTagEviction at a held tag. i must be < TagCount().
func (t *Thread) TaggedLine(i int) core.Line { return t.tags[i].line }

// ClearTagSet drops all tags and the overflow/eviction/stale latches. The
// thread's sharer bits stay where they are (see the package comment).
func (t *Thread) ClearTagSet() {
	t.tags = t.tags[:0]
	t.held = 0
	t.overflow = false
	t.evicted = false
	t.stale = false
	t.obs.Cleared()
}

// MarkWrite marks every line of [a, a+size) as being written by this
// thread. The mark goes on with a version bump, so remote tags taken before
// it go stale as after a store; a remote AddTag that sees it latches stale.
// A line this thread already marks is skipped. Under the memtagcheck build
// tag a line another thread marks panics (core.Thread.MarkWrite's
// one-marker rule); otherwise it is skipped too.
func (t *Thread) MarkWrite(a core.Addr, size int) {
	t.ticks++
	first, last, ok := core.LineSpan(a, size)
	if !ok {
		return
	}
	for l := first; l <= last; l++ {
		ls := t.m.lineAt(l)
		ls.lock()
		if ls.word.Load()&markBit == 0 {
			t.bumpLocked(ls, t.tagIndex(l), markBit)
			t.marks = append(t.marks, ls)
		} else if core.Checked && !t.marking(ls) {
			ls.unlock(0)
			panic(fmt.Sprintf("vtags: thread %d marks line %d, which another thread already marks", t.id, l))
		}
		ls.unlock(0)
	}
}

// UnmarkWrites clears every mark this thread holds. Clearing is no write:
// the version stays.
func (t *Thread) UnmarkWrites() {
	for _, ls := range t.marks {
		ls.lock()
		ls.unlock(markBit)
	}
	t.marks = t.marks[:0]
}

// marking reports whether this thread holds the mark on ls.
func (t *Thread) marking(ls *lineState) bool {
	for _, m := range t.marks {
		if m == ls {
			return true
		}
	}
	return false
}

// VAS validates under the tagged lines' locks and stores v at a.
func (t *Thread) VAS(a core.Addr, v uint64) bool { return t.commit(a, v, false) }

// IAS validates, bumps every tagged line's version (invalidating all other
// threads' tags on them), and stores v at a.
func (t *Thread) IAS(a core.Addr, v uint64) bool { return t.commit(a, v, true) }

func (t *Thread) commit(a core.Addr, v uint64, invalidateTags bool) bool {
	t.ticks++
	target := a.Line()
	if t.overflow || t.evicted || t.stale {
		t.fails++
		t.obs.Committed(invalidateTags, false, target)
		return false
	}
	// Reuse the per-thread lock buffer and sort it closure-free: the set
	// is bounded by maxTags+1, so insertion sort over the reused buffer
	// beats rebuilding a slice and sort.Slice on every commit attempt.
	locks := append(t.lockBuf[:0], t.tags...)
	ti := t.tagIndex(target)
	var tls *lineState
	if ti >= 0 {
		tls = t.tags[ti].ls
	} else {
		tls = t.m.lineAt(target)
		locks = append(locks, tagEntry{ls: tls, line: target})
	}
	sortByLine(locks)
	t.lockBuf = locks
	for i := range locks {
		locks[i].ls.lock()
	}
	// The re-check under the locks is a scan whatever the dirty flag says:
	// it must see every bump that completed before the locks were taken.
	ok := t.tagsCurrent()
	if ok {
		t.obs.Valid()
		t.m.space.AtomicWrite(a, v)
		// bumpLocked re-records our own tags at the bumped versions, so our
		// later validations don't fail on our own write, and tells the other
		// sharers of every line it bumps.
		if invalidateTags {
			for i := range t.tags {
				t.bumpLocked(t.tags[i].ls, i, 0)
			}
			if ti < 0 {
				t.bumpLocked(tls, -1, 0)
			}
		} else {
			t.bumpLocked(tls, ti, 0)
		}
	}
	for i := len(locks) - 1; i >= 0; i-- {
		locks[i].ls.unlock(0)
	}
	if !ok {
		t.fails++
	}
	t.obs.Committed(invalidateTags, ok, target)
	return ok
}

// sortByLine sorts a small lock set in place by line number, the global
// lock order. The set is bounded by maxTags+1, where insertion sort beats
// sort.Slice and avoids the closure allocation on every attempt.
func sortByLine(s []tagEntry) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j].line > v.line {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
