package vtags

import (
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// Tests for the sharer mask and the dirty flag (see the package comment).
// They run green under -race -count=10. Mutation checks, each run against
// this file and then reverted (the first two at -cpu 2: on one P the
// hammer's reader and writer take turns and cannot interleave):
//
//   - rescan lowering dirty *after* the scan instead of before:
//     TestStoreThenValidateHammer fails (a bump that lands mid-scan is wiped).
//   - bumpLocked raising the sharers' flags *before* its CAS:
//     TestStoreThenValidateHammer fails (the reader consumes the flag, scans
//     the old version, and nothing tells it again).
//   - bumpLocked skipping the flag of one taken bit (the lowest, or the
//     highest): TestIASDirtiesEverySharer fails.

// The line-state table has one entry per touched line: one word, the lock
// included. A second word per line adds 4 % to kv-rtt's live heap.
func TestLineStateIs8Bytes(t *testing.T) {
	if got := unsafe.Sizeof(lineState{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(lineState{}) = %d, want 8", got)
	}
}

// TestTagUnderHeldLock: readers do not wait for the line lock. A tag taken
// while a writer holds it (its data word stored, its bump still to come)
// records the pre-bump version, validates until the bump, and fails after
// it. The bump takes the reader's bit and raises its flag with the lock still
// held; the writer unlocks afterwards.
func TestTagUnderHeldLock(t *testing.T) {
	m := New(1<<16, 2)
	r, w := m.threads[0], m.threads[1]
	a := m.Alloc(core.WordsPerLine)
	ls := m.lineAt(a.Line())
	before := ls.word.Load() &^ lowMask

	ls.lock()
	m.space.AtomicWrite(a, 1)
	if !r.AddTag(a, core.WordSize) {
		t.Fatal("AddTag under a held lock failed")
	}
	if got := r.tags[0].version; got != before {
		t.Fatalf("tag under a held lock recorded version %#x, want the pre-bump %#x", got, before)
	}
	if !r.Validate() {
		t.Fatal("tag under a held lock fails before the bump")
	}
	w.bumpLocked(ls, -1, 0)
	if got := ls.word.Load(); got&lockBit == 0 || got&^lowMask != before+versionUnit || got&r.bit != 0 {
		t.Fatalf("after the bump: word %#x, want version +1, the reader's bit taken and the lock bit still set", got)
	}
	if r.dirty.Load() == 0 {
		t.Fatal("the bump that took the reader's bit left its flag down")
	}
	ls.unlock(0)
	if got := ls.word.Load(); got&lockBit != 0 {
		t.Fatalf("after unlock: word %#x, want the lock bit clear", got)
	}
	if r.Validate() {
		t.Fatal("tag taken under a held lock validates after the bump")
	}
}

// readerKinds are the three ways a thread relates to the sharer mask. The
// scripted scenarios run once per kind and must come out the same: a thread
// no writer can find validates by scanning, every time.
var readerKinds = []struct {
	name string
	mk   func() (m *Memory, reader *Thread)
}{
	{"bit", func() (*Memory, *Thread) {
		m := New(1<<16, 4)
		return m, m.threads[0]
	}},
	{"beyond-mask", func() (*Memory, *Thread) {
		m := New(1<<16, sharerBits+1)
		return m, m.threads[sharerBits]
	}},
	{"spare", func() (*Memory, *Thread) {
		m := New(1<<16, 4)
		return m, m.SpareThread().(*Thread)
	}},
}

// sharerStep is one step of a scripted scenario over two lines: an
// operation by the reader under test ('r') or by the writer ('w', always
// thread 1), or a check of the reader's Validate.
type sharerStep struct {
	who  byte
	op   string // tag, clear, store, validate
	line int
	want bool // validate only
}

func TestSharerScenarios(t *testing.T) {
	const L, M = 0, 1
	scenarios := []struct {
		name  string
		steps []sharerStep
	}{
		// (a) A remote store fails the tag until ClearTagSet, however often
		// Validate is asked: the first failing scan consumed the flag.
		{"remote-store-latches", []sharerStep{
			{'r', "tag", L, false},
			{'r', "validate", 0, true},
			{'w', "store", L, false},
			{'r', "validate", 0, false},
			{'r', "validate", 0, false},
			{'r', "clear", 0, false},
			{'r', "tag", L, false},
			{'r', "validate", 0, true},
		}},
		// (b) A sharer bit left on M by an earlier transaction costs a scan,
		// never a failure; a store to the line held now still fails.
		{"stale-sharer-is-not-a-conflict", []sharerStep{
			{'r', "tag", M, false},
			{'r', "clear", 0, false},
			{'r', "tag", L, false},
			{'w', "store", M, false},
			{'r', "validate", 0, true},
			{'r', "validate", 0, true},
			{'w', "store", L, false},
			{'r', "validate", 0, false},
		}},
		// (c) Tagging a line whose bit is already on is a live registration.
		{"sticky-bit-still-registers", []sharerStep{
			{'r', "tag", L, false},
			{'r', "clear", 0, false},
			{'r', "tag", L, false},
			{'r', "validate", 0, true},
			{'w', "store", L, false},
			{'r', "validate", 0, false},
		}},
		// A store that precedes the tag is not a conflict, whoever's bits it
		// took.
		{"store-before-tag", []sharerStep{
			{'r', "tag", L, false},
			{'r', "clear", 0, false},
			{'w', "store", L, false},
			{'r', "tag", L, false},
			{'r', "validate", 0, true},
		}},
	}
	for _, kind := range readerKinds {
		for _, sc := range scenarios {
			t.Run(kind.name+"/"+sc.name, func(t *testing.T) {
				m, r := kind.mk()
				w := m.threads[1]
				var lines [2]core.Addr
				for i := range lines {
					lines[i] = m.Alloc(core.WordsPerLine)
				}
				for i, s := range sc.steps {
					th := r
					if s.who == 'w' {
						th = w
					}
					switch s.op {
					case "tag":
						th.AddTag(lines[s.line], core.WordSize)
					case "clear":
						th.ClearTagSet()
					case "store":
						th.Store(lines[s.line], uint64(i))
					case "validate":
						if got := th.Validate(); got != s.want {
							t.Fatalf("step %d: Validate = %v, want %v", i, got, s.want)
						}
					}
				}
			})
		}
	}
}

// sharerWord returns line a's packed word.
func sharerWord(m *Memory, a core.Addr) uint64 { return m.lineAt(a.Line()).word.Load() }

// TestDirtyFlagLifecycle pins what the scenarios cannot see from outside:
// the flag is raised by the store that takes the bit, one scan consumes it,
// and a re-tag of a line whose bit is still on writes nothing.
func TestDirtyFlagLifecycle(t *testing.T) {
	m := New(1<<16, 2)
	t0, t1 := m.threads[0], m.threads[1]
	lm, ll := m.Alloc(core.WordsPerLine), m.Alloc(core.WordsPerLine)

	t0.AddTag(lm, core.WordSize)
	t0.ClearTagSet()
	if sharerWord(m, lm)&t0.bit == 0 {
		t.Fatal("ClearTagSet dropped the sharer bit; bits are sticky")
	}
	t0.AddTag(ll, core.WordSize)
	t1.Store(lm, 1)
	if sharerWord(m, lm)&sharerMask != 0 {
		t.Fatalf("store left sharer bits %#x on the line", sharerWord(m, lm)&sharerMask)
	}
	if t0.dirty.Load() == 0 {
		t.Fatal("store took the reader's bit without raising its dirty flag")
	}
	if !t0.Validate() || t0.dirty.Load() != 0 {
		t.Fatalf("stale sharer: want one passing scan that consumes the flag (dirty=%d)", t0.dirty.Load())
	}

	// Bit on from the first tag; tagging again must not touch the word.
	t0.ClearTagSet()
	before := sharerWord(m, ll)
	t0.AddTag(ll, core.WordSize)
	if after := sharerWord(m, ll); after != before || after&t0.bit == 0 {
		t.Fatalf("re-tag with the bit on changed the word: %#x -> %#x", before, after)
	}
	t1.Store(ll, 1)
	if t0.Validate() {
		t.Fatal("store to a line tagged through a sticky bit not detected")
	}
}

// TestIASDirtiesEverySharer: an IAS bumps every tagged line, so it must tell
// the sharers of each. Reader i tags line i only and reader 4 tags all
// three, so every line has two other sharers and a writer that drops any one
// flag leaves some reader validating a stale tag.
func TestIASDirtiesEverySharer(t *testing.T) {
	m := New(1<<16, 5)
	w := m.threads[0]
	var lines [3]core.Addr
	for i := range lines {
		lines[i] = m.Alloc(core.WordsPerLine)
	}
	target := m.Alloc(core.WordsPerLine)
	for i, a := range lines {
		w.AddTag(a, core.WordSize)
		m.threads[1+i].AddTag(a, core.WordSize)
		m.threads[4].AddTag(a, core.WordSize)
	}
	for _, r := range m.threads[1:] {
		if !r.Validate() {
			t.Fatalf("reader %d: fresh tags invalid", r.id)
		}
	}
	if !w.IAS(target, 7) {
		t.Fatal("IAS failed on a quiet tag set")
	}
	for _, r := range m.threads[1:] {
		if r.dirty.Load() == 0 {
			t.Errorf("reader %d: IAS bumped its line without raising its flag", r.id)
		}
		if r.Validate() {
			t.Errorf("reader %d: validates after an IAS over its tagged line", r.id)
		}
	}
	if !w.Validate() {
		t.Fatal("IAS invalidated the issuer's own tags")
	}
}

// TestOwnWritesKeepBitAndFlag: a thread's own Store, CAS, VAS and IAS on a
// line it has tagged re-record the tag, keep its sharer bit and do not raise
// its own flag.
func TestOwnWritesKeepBitAndFlag(t *testing.T) {
	writes := []struct {
		name string
		do   func(th *Thread, a core.Addr) bool
	}{
		{"Store", func(th *Thread, a core.Addr) bool { th.Store(a, 1); return true }},
		{"CAS", func(th *Thread, a core.Addr) bool { return th.CAS(a, 0, 1) }},
		{"VAS", func(th *Thread, a core.Addr) bool { return th.VAS(a, 1) }},
		{"IAS", func(th *Thread, a core.Addr) bool { return th.IAS(a, 1) }},
	}
	for _, wr := range writes {
		t.Run(wr.name, func(t *testing.T) {
			m := New(1<<16, 2)
			th := m.threads[0]
			a := m.Alloc(core.WordsPerLine)
			th.AddTag(a, core.WordSize)
			before := sharerWord(m, a)
			if !wr.do(th, a) {
				t.Fatal("own write failed")
			}
			after := sharerWord(m, a)
			if after&^sharerMask != before&^sharerMask+versionUnit {
				t.Fatalf("version %#x -> %#x, want +1", before>>sharerBits, after>>sharerBits)
			}
			if after&sharerMask != th.bit {
				t.Fatalf("sharer bits %#x after own write, want own bit %#x only", after&sharerMask, th.bit)
			}
			if th.dirty.Load() != 0 {
				t.Fatal("own write raised own dirty flag")
			}
			if !th.Validate() {
				t.Fatal("own write invalidated own tag")
			}
			// The kept bit is a live registration.
			m.threads[1].Store(a, 2)
			if th.Validate() {
				t.Fatal("remote store after own write not detected")
			}
		})
	}
}

// TestVersionWrapLeavesSharerBits presets a line's version field to its
// maximum: the bump wraps it to zero and the sharer bits change only as the
// protocol says (the writer's own tag keeps its bit, the other sharer's is
// taken), with nothing carried into the mark bit or between the fields.
func TestVersionWrapLeavesSharerBits(t *testing.T) {
	const maxVersion = ^uint64(0) &^ lowMask
	m := New(1<<16, 3)
	t0, t1, t2 := m.threads[0], m.threads[1], m.threads[2]
	a := m.Alloc(core.WordsPerLine)
	m.lineAt(a.Line()).word.Store(maxVersion)

	t0.AddTag(a, core.WordSize)
	t2.AddTag(a, core.WordSize)
	if got := sharerWord(m, a); got != maxVersion|t0.bit|t2.bit {
		t.Fatalf("tagging at the maximum version: word %#x", got)
	}
	t0.Store(a, 1) // own tag: keeps t0's bit, takes t2's
	if got := sharerWord(m, a); got != t0.bit {
		t.Fatalf("bump across the wrap: word %#x, want version 0 with only bit %#x", got, t0.bit)
	}
	if !t0.Validate() {
		t.Fatal("own store across the wrap invalidated own tag")
	}
	if t2.Validate() {
		t.Fatal("store across the wrap not detected by the other sharer")
	}
	m.lineAt(a.Line()).word.Store(maxVersion | t0.bit)
	t1.Store(a, 2) // no tag, bit off: takes t0's, leaves none
	if got := sharerWord(m, a); got != 0 {
		t.Fatalf("untagged writer across the wrap: word %#x, want 0", got)
	}
}

// TestStoreThenValidateHammer is the ordering test: no Validate that starts
// after a remote store to a tagged line has returned may report true. The
// reader tags k lines and validates in a loop; after a handshake the writer
// first stores a line the reader only has a stale sharer bit on — which
// sends the reader into its scan — and then the first tagged line, so that
// bump tends to land while the scan is under way.
func TestStoreThenValidateHammer(t *testing.T) {
	const k = 16
	rounds := 20000
	if testing.Short() {
		rounds = 4000
	}
	m := New(1<<20, 2)
	reader, writer := m.threads[0], m.threads[1]
	tagged := m.Alloc(core.WordsPerLine * k)
	stale := m.Alloc(core.WordsPerLine)

	var stored atomic.Int64 // last round whose store to a tagged line returned
	stored.Store(-1)
	start := make(chan int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range start {
			writer.Store(stale, uint64(r))
			writer.Store(tagged, uint64(r))
			stored.Store(int64(r))
		}
	}()

	for r := 0; r < rounds; r++ {
		reader.ClearTagSet()
		reader.AddTag(stale, core.WordSize)
		reader.ClearTagSet()
		reader.AddTag(tagged, core.LineSize*k)
		if !reader.Validate() {
			t.Fatalf("round %d: fresh tag set invalid with no writer running", r)
		}
		start <- r
		for {
			after := stored.Load() == int64(r)
			if ok := reader.Validate(); ok && after {
				close(start)
				<-done
				t.Fatalf("round %d: Validate started after the store returned and reported true", r)
			}
			if after {
				break
			}
			if runtime.GOMAXPROCS(0) == 1 {
				runtime.Gosched() // on one P the writer runs only when the reader yields
			}
		}
	}
	close(start)
	<-done
}
