// Package kcas implements the practical multi-word compare-and-swap of
// Harris, Fraser and Pratt (DISC 2002) over simulated memory — descriptors,
// RDCSS and helping — plus the paper's tag-accelerated variant (Section 1,
// "General Tagging"): tagging the target set gives a cheap fail-fast
// pre-check and a lock-free multi-word snapshot, removing coherence traffic
// from the failure path.
//
// Words managed through this package must keep their top two value bits
// clear (below 1<<62): the implementation reserves bit 63 to mark KCAS
// descriptors and bit 62 to mark RDCSS descriptors stored in place of
// values during an operation.
package kcas

import (
	"sort"
	"sync/atomic"

	"repro/internal/core"
)

// Descriptor pointer marks.
const (
	kcasMark  uint64 = 1 << 63
	rdcssMark uint64 = 1 << 62
	// MaxValue is the largest value a kCAS-managed word may hold.
	MaxValue uint64 = rdcssMark - 1
)

// Operation status values.
const (
	stUndecided uint64 = 0
	stSucceeded uint64 = 1
	stFailed    uint64 = 2
)

// KCAS descriptor layout (words).
const (
	kStatus  = 0
	kCount   = 1
	kEntries = 2
	kEntryW  = 3 // addr, old, new
)

// RDCSS descriptor layout (words): a1 (control/status address), o1
// (expected control value), a2 (data address), o2 (expected data), n2 (new
// data).
const (
	rA1 = 0
	rO1 = 1
	rA2 = 2
	rO2 = 3
	rN2 = 4
	rW  = 5
)

func isKCAS(v uint64) bool  { return v&kcasMark != 0 }
func isRDCSS(v uint64) bool { return v&rdcssMark != 0 }

// Manager issues kCAS operations against one simulated memory. Every
// operation allocates its descriptors from the memory and never frees them.
type Manager struct {
	mem core.Memory
	// TagOverflowRetries counts TaggedKCAS calls whose target set exceeded
	// the tag budget and were retried on the bare software path. Tags are
	// advisory: overflow must degrade to the untagged kCAS, never to a
	// spurious failure.
	TagOverflowRetries atomic.Uint64
}

// New creates a manager.
func New(mem core.Memory) *Manager { return &Manager{mem: mem} }

// Entry is one word of a multi-word CAS.
type Entry struct {
	Addr core.Addr
	Old  uint64
	New  uint64
}

// Read returns the logical value of a kCAS-managed word, helping any
// operation found in progress there.
func (g *Manager) Read(th core.Thread, a core.Addr) uint64 {
	for {
		v := th.Load(a)
		switch {
		case isRDCSS(v):
			g.completeRDCSS(th, core.Addr(v&^rdcssMark))
		case isKCAS(v):
			g.helpKCAS(th, core.Addr(v&^kcasMark))
		default:
			return v
		}
	}
}

// KCAS atomically replaces each entry's Old with its New iff every entry
// currently holds Old. Entries are processed in address order; duplicate
// addresses are not allowed. Values must not exceed MaxValue.
func (g *Manager) KCAS(th core.Thread, entries []Entry) bool {
	if len(entries) == 0 {
		return true
	}
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool { return es[i].Addr < es[j].Addr })
	for i, e := range es {
		if e.Old > MaxValue || e.New > MaxValue {
			panic("kcas: value exceeds MaxValue")
		}
		if i > 0 && es[i-1].Addr == e.Addr {
			panic("kcas: duplicate address")
		}
	}
	d := th.Alloc(kEntries + len(es)*kEntryW)
	th.Store(d.Plus(kStatus), stUndecided)
	th.Store(d.Plus(kCount), uint64(len(es)))
	for i, e := range es {
		base := kEntries + i*kEntryW
		th.Store(d.Plus(base+0), uint64(e.Addr))
		th.Store(d.Plus(base+1), e.Old)
		th.Store(d.Plus(base+2), e.New)
	}
	return g.helpKCAS(th, d)
}

// helpKCAS drives the operation at descriptor d to completion. Any thread
// may help.
func (g *Manager) helpKCAS(th core.Thread, d core.Addr) bool {
	dptr := uint64(d) | kcasMark
	n := int(th.Load(d.Plus(kCount)))

	// Phase 1: install the descriptor into every entry via RDCSS, which
	// refuses to install once the status is decided.
	if th.Load(d.Plus(kStatus)) == stUndecided {
	install:
		for i := 0; i < n; i++ {
			base := kEntries + i*kEntryW
			addr := core.Addr(th.Load(d.Plus(base + 0)))
			old := th.Load(d.Plus(base + 1))
			for {
				r := g.rdcss(th, d.Plus(kStatus), stUndecided, addr, old, dptr)
				if r == dptr {
					break // already installed (possibly by a helper)
				}
				if isKCAS(r) {
					g.helpKCAS(th, core.Addr(r&^kcasMark))
					continue
				}
				if r != old {
					th.CAS(d.Plus(kStatus), stUndecided, stFailed)
					break install
				}
				break // installed by us
			}
			if th.Load(d.Plus(kStatus)) != stUndecided {
				break
			}
		}
		th.CAS(d.Plus(kStatus), stUndecided, stSucceeded)
	}

	// Phase 2: replace the descriptor with the outcome values.
	succeeded := th.Load(d.Plus(kStatus)) == stSucceeded
	for i := 0; i < n; i++ {
		base := kEntries + i*kEntryW
		addr := core.Addr(th.Load(d.Plus(base + 0)))
		old := th.Load(d.Plus(base + 1))
		val := old
		if succeeded {
			val = th.Load(d.Plus(base + 2))
		}
		th.CAS(addr, dptr, val)
	}
	return succeeded
}

// rdcss performs the restricted double-compare single-swap: store n2 into
// a2 iff a2 holds o2 AND the word at a1 holds o1. It returns the value
// found at a2 (o2 on success; callers compare against dptr/old to decide).
func (g *Manager) rdcss(th core.Thread, a1 core.Addr, o1 uint64, a2 core.Addr, o2, n2 uint64) uint64 {
	rd := th.Alloc(rW)
	th.Store(rd.Plus(rA1), uint64(a1))
	th.Store(rd.Plus(rO1), o1)
	th.Store(rd.Plus(rA2), uint64(a2))
	th.Store(rd.Plus(rO2), o2)
	th.Store(rd.Plus(rN2), n2)
	rptr := uint64(rd) | rdcssMark
	for {
		if th.CAS(a2, o2, rptr) {
			g.completeRDCSS(th, rd)
			return o2
		}
		v := th.Load(a2)
		if isRDCSS(v) {
			g.completeRDCSS(th, core.Addr(v&^rdcssMark))
			continue
		}
		if v == o2 {
			// The CAS lost a race (another descriptor was installed and
			// resolved in between) but the word holds o2 again, e.g. after a
			// failed operation's rollback. Returning o2 here would be
			// indistinguishable from the success path above, and helpKCAS
			// would treat the entry as installed without any descriptor in
			// place — committing a k-CAS that skips this word. Retry instead,
			// so a returned value always differs from o2.
			continue
		}
		return v
	}
}

// completeRDCSS resolves an installed RDCSS descriptor: commit n2 if the
// control word still holds o1, otherwise roll back to o2.
func (g *Manager) completeRDCSS(th core.Thread, rd core.Addr) {
	a1 := core.Addr(th.Load(rd.Plus(rA1)))
	o1 := th.Load(rd.Plus(rO1))
	a2 := core.Addr(th.Load(rd.Plus(rA2)))
	o2 := th.Load(rd.Plus(rO2))
	n2 := th.Load(rd.Plus(rN2))
	rptr := uint64(rd) | rdcssMark
	if th.Load(a1) == o1 {
		th.CAS(a2, rptr, n2)
	} else {
		th.CAS(a2, rptr, o2)
	}
}
