package treeupdate_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/abtree"
	"repro/internal/bst"
	"repro/internal/chromatic"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/reclaim"
)

// The template-parity golden test. Every tree flavour runs one seeded
// single-thread script on the simulated machine, and three things must equal
// what the per-flavour code this package replaced produced (recorded at commit
// 31abec7, the parent of the PR that introduced the step): the machine's
// full Stats (every op count, the final cycle clock and the energy), and a
// digest of the machine's event trace — one event per cache access and tag
// operation, each with its line and the cycle it was issued at. Equal digests
// mean the access sequence of every operation is the same, access for access;
// that is what lets a later change touch a Step or a rule and know at once
// whether the simulated traffic moved. If a change moves it on purpose,
// re-record the row and say why in the commit.

// traceDigest folds every machine event into one FNV-1a hash.
type traceDigest struct {
	sum uint64
	n   uint64
}

func (d *traceDigest) Trace(e core.Event) {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range [...]uint64{d.sum, uint64(e.Kind), uint64(e.Core), uint64(int64(e.Target)), e.Line, e.Cycle} {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	d.sum = h.Sum64()
	d.n++
}

type parityVariant struct {
	name  string
	l1    int // L1 size in lines; 0 keeps the default
	build func(m *machine.Machine) intset.Set
}

func pooledHoH(m *machine.Machine) intset.Set {
	d := reclaim.NewDomainFor(m)
	d.SetChecked(true)
	m.SetReclaim(d)
	s := abtree.NewHoH(m, 2, 4)
	s.SetReclaim(reclaim.NewPool(d, s.NodeWords(), reclaim.PolicyImmediate))
	return s
}

var parityVariants = []parityVariant{
	{"llx-tree", 0, func(m *machine.Machine) intset.Set { return abtree.NewLLX(m, 2, 4) }},
	{"hoh-tree", 0, func(m *machine.Machine) intset.Set { return abtree.NewHoH(m, 2, 4) }},
	{"elided-tree", 0, func(m *machine.Machine) intset.Set { return abtree.NewElided(m, 2, 4, 0) }},
	{"hoh-tree/immediate", 0, pooledHoH},
	// A four-line direct-mapped L1 evicts the tagged window constantly, so
	// this row is the bounded restarts, the failed guards and the slow path.
	{"elided-tree/tiny-l1", 4, func(m *machine.Machine) intset.Set { return abtree.NewElided(m, 2, 4, 3) }},
	{"llx-tree/4-8", 0, func(m *machine.Machine) intset.Set { return abtree.NewLLX(m, 4, 8) }},
	{"hoh-tree/4-8", 0, func(m *machine.Machine) intset.Set { return abtree.NewHoH(m, 4, 8) }},
	{"llx-bst", 0, func(m *machine.Machine) intset.Set { return bst.NewLLX(m) }},
	{"hoh-bst", 0, func(m *machine.Machine) intset.Set { return bst.NewHoH(m) }},
	{"llx-chromatic", 0, func(m *machine.Machine) intset.Set { return chromatic.NewLLX(m) }},
	{"hoh-chromatic", 0, func(m *machine.Machine) intset.Set { return chromatic.NewHoH(m) }},
}

// parityRun drives the script and returns what the machine saw. The script
// is three random phases over 384 keys — grow (mostly inserts), churn, shrink
// (mostly deletes) — so splits, merges, root growth and root collapse all
// occur, and on the chromatic tree BLK, RB1, RB2, A1, A1b, A1c, A1e and A2.
// What no single-thread script reaches (the package tests do not either) are
// A3 and the lone-leaf delete; the off-path red-red and the A1 beside a heavy
// sibling need concurrency.
func parityRun(t *testing.T, v parityVariant) (stats string, digest uint64, events uint64) {
	t.Helper()
	cfg := machine.DefaultConfig(1)
	if v.l1 != 0 {
		cfg.L1Bytes = v.l1 * core.LineSize
		cfg.L1Ways = 1
	}
	m := machine.New(cfg)
	s := v.build(m)
	var d traceDigest
	m.SetTracer(&d)
	th := m.Thread(0)
	rng := rand.New(rand.NewSource(20200715))
	model := map[uint64]bool{}
	const keys, perPhase = 384, 2500
	for phase, insertPct := range []int{70, 40, 10} {
		for i := 0; i < perPhase; i++ {
			k := uint64(rng.Intn(keys)) + 1
			switch r := rng.Intn(100); {
			case r < 20:
				if got := s.Contains(th, k); got != model[k] {
					t.Fatalf("%s phase %d op %d: Contains(%d) = %v, model %v", v.name, phase, i, k, got, model[k])
				}
			case r < 20+insertPct*80/100:
				if got := s.Insert(th, k); got == model[k] {
					t.Fatalf("%s phase %d op %d: Insert(%d) = %v, model has it: %v", v.name, phase, i, k, got, model[k])
				}
				model[k] = true
			default:
				if got := s.Delete(th, k); got != model[k] {
					t.Fatalf("%s phase %d op %d: Delete(%d) = %v, model %v", v.name, phase, i, k, got, model[k])
				}
				delete(model, k)
			}
		}
	}
	m.SetTracer(nil)
	return fmt.Sprintf("%+v", m.Snapshot()), d.sum, d.n
}

func TestTemplateParity(t *testing.T) {
	for _, v := range parityVariants {
		t.Run(v.name, func(t *testing.T) {
			stats, digest, events := parityRun(t, v)
			want, ok := parityGolden[v.name]
			got := parityRow{stats, digest, events}
			if !ok || got != want {
				t.Errorf("simulated traffic moved.\n got: %q: {%q, %#x, %d},\nwant: %q: {%q, %#x, %d},",
					v.name, got.stats, got.digest, got.events, v.name, want.stats, want.digest, want.events)
			}
		})
	}
}

// TestTemplateParityRepeats guards the guard: the script itself must be
// deterministic, or a golden mismatch would mean nothing.
func TestTemplateParityRepeats(t *testing.T) {
	v := parityVariants[1]
	s1, d1, n1 := parityRun(t, v)
	s2, d2, n2 := parityRun(t, v)
	if s1 != s2 || d1 != d2 || n1 != n2 {
		t.Fatalf("two runs of %s differ: %s / %#x / %d vs %s / %#x / %d", v.name, s1, d1, n1, s2, d2, n2)
	}
}
