package machine

import (
	"fmt"

	"repro/internal/core"
)

// Load reads the word at a, performing the MESI read transaction for its
// line.
func (t *Thread) Load(a core.Addr) uint64 {
	if core.Checked {
		t.m.issuing.Add(1)
		defer t.m.issuing.Add(-1)
	}
	t.throttle()
	t.stats.Loads++
	t.charge(t.m.cfg.ComputeCycles, 0)
	l := a.Line()
	d := t.m.dirAt(l)
	d.lock()
	o := t.touchLineLocked(l, d, false)
	v := t.m.space.Read(a)
	d.release(o, d.marked())
	t.drainEvictions()
	return v
}

// Store writes v at a, invalidating all remote copies of the line (which
// evicts remote tags on it).
func (t *Thread) Store(a core.Addr, v uint64) {
	if core.Checked {
		t.m.issuing.Add(1)
		defer t.m.issuing.Add(-1)
	}
	t.throttle()
	t.stats.Stores++
	t.charge(t.m.cfg.ComputeCycles, 0)
	l := a.Line()
	d := t.m.dirAt(l)
	d.lock()
	o := t.touchLineLocked(l, d, true)
	t.m.space.Write(a, v)
	d.release(o, d.marked())
	t.drainEvictions()
}

// CAS atomically compares-and-swaps the word at a. Like hardware CAS, it
// acquires the line exclusively whether or not the comparison succeeds.
func (t *Thread) CAS(a core.Addr, old, new uint64) bool {
	if core.Checked {
		t.m.issuing.Add(1)
		defer t.m.issuing.Add(-1)
	}
	t.throttle()
	cfg := &t.m.cfg
	t.stats.CASes++
	t.charge(cfg.ComputeCycles, 0)
	l := a.Line()
	d := t.m.dirAt(l)
	d.lock()
	o := t.touchLineLocked(l, d, true)
	t.charge(cfg.CASExtraCycles, 0)
	ok := t.m.space.Read(a) == old
	if ok {
		t.m.space.Write(a, new)
	}
	d.release(o, d.marked())
	t.drainEvictions()
	return ok
}

// hasTag reports whether line l is in the tag set.
func (t *Thread) hasTag(l core.Line) bool {
	for _, tl := range t.tags {
		if tl == l {
			return true
		}
	}
	return false
}

// AddTag tags every line of [a, a+size): each line is brought into the
// local hierarchy (transition-to-tagged, then tagged once the fill is
// served) and recorded in both the per-core tag set and the line's
// directory tagger mask. Exceeding MaxTags sets the overflow condition and
// reports false; all validations then fail until ClearTagSet.
func (t *Thread) AddTag(a core.Addr, size int) bool {
	if core.Checked {
		t.m.issuing.Add(1)
		defer t.m.issuing.Add(-1)
	}
	t.throttle()
	cfg := &t.m.cfg
	first, last, ok := core.LineSpan(a, size)
	if !ok {
		return true
	}
	for l := first; l <= last; l++ {
		if l > first {
			// A multi-line tag acquisition is not one coherence transaction:
			// remote cores can act between the per-line directory lock
			// acquisitions. Expose that window to the schedule explorer.
			t.gateInternal()
		}
		if t.hasTag(l) {
			continue
		}
		if len(t.tags) >= cfg.MaxTags {
			t.overflow = true
			t.stats.TagOverflows++
			return false
		}
		d := t.m.dirAt(l)
		d.lock()
		o := t.touchForTagLocked(l, d)
		d.taggers().add(t.id)
		mk := d.marked()
		if mk >= 0 && mk != t.id {
			// Another core is mid-write on the line: the tag is born evicted.
			t.evicted.Store(true)
			t.stats.RemoteTagEvictions.Add(1)
		}
		d.release(o, mk)
		t.tags = append(t.tags, l)
		t.stats.TagAdds++
		t.obs.Tagged(l, len(t.tags))
		t.charge(cfg.TagOpCycles, 0)
		t.drainEvictions()
	}
	return true
}

// RemoveTag untags every line of [a, a+size) that is currently tagged. A
// previously recorded eviction is not forgotten.
//
// RemoveTag throttles like every other memory/tag operation: it
// participates in lax clock synchronization and reports a GateOp point to
// the schedule explorer, so explored schedules can interleave remote
// effects at tag-release boundaries (the window between a traversal's last
// access and its tag release is where a remote write decides whether the
// eviction latch is set).
func (t *Thread) RemoveTag(a core.Addr, size int) {
	if core.Checked {
		t.m.issuing.Add(1)
		defer t.m.issuing.Add(-1)
	}
	t.throttle()
	cfg := &t.m.cfg
	first, last, ok := core.LineSpan(a, size)
	if !ok {
		return
	}
	for l := first; l <= last; l++ {
		idx := -1
		for i, tl := range t.tags {
			if tl == l {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		t.recAccess(l, false)
		d := t.m.dirAt(l)
		d.lock()
		d.taggers().remove(t.id)
		d.unlock()
		t.tags = append(t.tags[:idx], t.tags[idx+1:]...)
		t.stats.TagRemoves++
		t.charge(cfg.TagOpCycles, 0)
		t.obs.Untagged(l)
	}
}

// Validate reports whether no tagged line has been invalidated or evicted
// since tagging, and the tag set never overflowed. It is purely local: no
// coherence traffic is generated (the key property of MemTags). The tag set
// is retained so hand-over-hand traversals can validate repeatedly.
func (t *Thread) Validate() bool {
	if core.Checked {
		t.m.issuing.Add(1)
		defer t.m.issuing.Add(-1)
	}
	t.throttle()
	t.recTagSetReads()
	t.stats.Validates++
	t.charge(t.m.cfg.ValidateCycles, 0)
	ok := !t.overflow && !t.evicted.Load()
	if !ok {
		t.stats.ValidateFails++
	}
	t.obs.Validated(ok)
	return ok
}

// TagCount returns the number of currently tagged lines.
func (t *Thread) TagCount() int { return len(t.tags) }

// ClearTagSet empties the tag set and resets eviction/overflow state.
func (t *Thread) ClearTagSet() {
	if core.Checked {
		t.m.issuing.Add(1)
		defer t.m.issuing.Add(-1)
	}
	for _, l := range t.tags {
		d := t.m.dirAt(l)
		d.lock()
		d.taggers().remove(t.id)
		d.unlock()
	}
	t.tags = t.tags[:0]
	t.overflow = false
	t.evicted.Store(false)
	t.obs.Cleared()
}

// MarkWrite marks every line of [a, a+size) in the directory as being
// written by this core. Marking a line is the exclusive acquisition its
// first store would make, moved earlier — the same charge and footprint,
// evicting every remote tag on it — so the stores that follow hit L1. A
// line this core already marks is skipped. Under the memtagcheck build tag
// a line another core marks panics (core.Thread.MarkWrite's one-marker
// rule); otherwise the mark is taken over.
func (t *Thread) MarkWrite(a core.Addr, size int) {
	if core.Checked {
		t.m.issuing.Add(1)
		defer t.m.issuing.Add(-1)
	}
	t.throttle()
	first, last, ok := core.LineSpan(a, size)
	if !ok {
		return
	}
	for l := first; l <= last; l++ {
		if l > first {
			t.gateInternal()
		}
		d := t.m.dirAt(l)
		d.lock()
		if mk := d.marked(); mk == t.id {
			d.unlock()
		} else {
			if core.Checked && mk >= 0 {
				d.unlock()
				panic(fmt.Sprintf("machine: core %d marks line %d, which core %d already marks", t.id, l, mk))
			}
			o := t.touchLineLocked(l, d, true)
			t.marks = append(t.marks, l)
			d.release(o, t.id)
		}
		t.drainEvictions()
	}
}

// UnmarkWrites clears every mark this core holds. It is directory
// bookkeeping on lines the core just wrote and is not charged.
func (t *Thread) UnmarkWrites() {
	if core.Checked {
		t.m.issuing.Add(1)
		defer t.m.issuing.Add(-1)
	}
	if len(t.marks) == 0 {
		return
	}
	t.throttle()
	for _, l := range t.marks {
		t.recAccess(l, true)
		d := t.m.dirAt(l)
		d.lock()
		d.release(d.owner(), -1)
	}
	t.marks = t.marks[:0]
}

// buildLockSet fills t.lockSet with the sorted, deduplicated union of the
// tag set and the target line. The lock set is bounded by MaxTags+1, so a
// closure-free insertion sort over the reused buffer beats sort.Slice
// (whose interface conversion and comparator closure allocate on every
// commit attempt).
func (t *Thread) buildLockSet(target core.Line) {
	t.lockSet = t.lockSet[:0]
	t.lockSet = append(t.lockSet, t.tags...)
	if !t.hasTag(target) {
		t.lockSet = append(t.lockSet, target)
	}
	insertionSortLines(t.lockSet)
}

// insertionSortLines sorts a small line slice in place without allocating.
func insertionSortLines(s []core.Line) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// VAS validates the tag set and, on success, stores v at a — atomically.
// Atomicity comes from holding the directory locks of every tagged line
// plus the target while checking and committing, the software analogue of
// the paper's "pause coherence requests during validation".
func (t *Thread) VAS(a core.Addr, v uint64) bool {
	if core.Checked {
		t.m.issuing.Add(1)
		defer t.m.issuing.Add(-1)
	}
	t.throttle()
	t.stats.VASAttempts++
	return t.commit(a, v, false)
}

// IAS validates the tag set, invalidates every tagged line at all other
// cores (transient marking: their future validations on those lines fail),
// and stores v at a — atomically.
func (t *Thread) IAS(a core.Addr, v uint64) bool {
	if core.Checked {
		t.m.issuing.Add(1)
		defer t.m.issuing.Add(-1)
	}
	t.throttle()
	t.stats.IASAttempts++
	return t.commit(a, v, true)
}

func (t *Thread) commit(a core.Addr, v uint64, invalidateTags bool) bool {
	cfg := &t.m.cfg
	target := a.Line()
	t.buildLockSet(target)
	// The window between computing the lock set and acquiring the directory
	// locks is where another core's commit or invalidation can slip in;
	// expose it to the schedule explorer (no locks held yet).
	t.gateInternal()
	// The commit segment's outcome is decided by remote writes to any
	// tagged line (they set the eviction latch the validation reads).
	t.recTagSetReads()
	for _, l := range t.lockSet {
		t.m.dirAt(l).lock()
	}
	t.charge(cfg.ValidateCycles, 0)
	if t.overflow || t.evicted.Load() {
		for i := len(t.lockSet) - 1; i >= 0; i-- {
			t.m.dirAt(t.lockSet[i]).unlock()
		}
		if invalidateTags {
			t.stats.IASFails++
		} else {
			t.stats.VASFails++
		}
		t.obs.Committed(invalidateTags, false, target)
		return false
	}
	t.obs.Valid()
	if invalidateTags {
		// Elevate every tagged line to exclusive at this core, evicting all
		// remote copies (and thus remote tags): the transient marking.
		for _, l := range t.tags {
			if l == target {
				continue // handled below with the write
			}
			t.recAccess(l, true)
			d := t.m.dirAt(l)
			t.invalidateOthersLocked(d, l)
		}
	}
	// Acquire the target exclusively and perform the single-word update.
	d := t.m.dirAt(target)
	t.touchLineLocked(target, d, true)
	t.m.space.Write(a, v)
	// This core now owns the target and, after an IAS, every tagged line.
	for i := len(t.lockSet) - 1; i >= 0; i-- {
		l := t.lockSet[i]
		ld := t.m.dirAt(l)
		if invalidateTags || l == target {
			ld.release(t.id, ld.marked())
		} else {
			ld.unlock()
		}
	}
	t.drainEvictions()
	t.obs.Committed(invalidateTags, true, target)
	return true
}
