package chromatic_test

import (
	"math/rand"
	"testing"

	"repro/internal/intset"
	"repro/internal/sets"
	"repro/internal/sets/settest"
)

// The generic set tests below keep their names: each runs cases of the set
// contract (internal/sets/settest) on the catalogue's chromatic trees.

var trees = []sets.Entry{
	settest.Catalogued("LLX", "llx-chromatic"),
	settest.Catalogued("HoH", "hoh-chromatic"),
}

func TestChromaticBasic(t *testing.T)     { settest.Each(t, "must/insert-delete-contains", trees...) }
func TestChromaticAscending(t *testing.T) { settest.Each(t, "must/grow-drain-ascending", trees...) }
func TestChromaticDescendingThenDrain(t *testing.T) {
	settest.Each(t, "must/grow-drain-descending", trees...)
}
func TestChromaticSequentialEquivalence(t *testing.T) {
	settest.Each(t, "must/sequential-narrow", trees...)
}
func TestChromaticDisjointConcurrent(t *testing.T) {
	settest.Each(t, "must/disjoint-concurrent", trees...)
}
func TestChromaticMixedConcurrent(t *testing.T) {
	settest.Each(t, "must/mixed-concurrent-32", trees...)
}
func TestChromaticHighContention(t *testing.T) { settest.Each(t, "must/mixed-concurrent-4", trees...) }

func TestChromaticInterVariantAgreement(t *testing.T) {
	settest.EachOn(t, settest.VTags, "must/sequential-", trees...)
}

func TestContainsAllocatesNothing(t *testing.T) {
	settest.EachOn(t, settest.VTags, "must/contains-allocates-nothing", trees...)
}

func TestLinearizableVTags(t *testing.T) {
	settest.EachOn(t, settest.VTags, "must/linearizable",
		settest.Catalogued("llx", "llx-chromatic"),
		settest.Catalogued("hoh", "hoh-chromatic"))
}

// TestChromaticBalanceUnderChurn checks the balance invariants every 500
// operations of random churn, not only at the end.
func TestChromaticBalanceUnderChurn(t *testing.T) {
	for _, m := range settest.Memories {
		for _, e := range trees {
			t.Run(m.Name+"/"+e.Name, func(t *testing.T) {
				mem := m.New(1)
				s, th := e.New(mem), mem.Thread(0)
				rng := rand.New(rand.NewSource(4))
				for i := 0; i < 4000; i++ {
					k := uint64(rng.Intn(400) + 1)
					if rng.Intn(2) == 0 {
						s.Insert(th, k)
					} else {
						s.Delete(th, k)
					}
					if i%500 == 499 {
						if err := s.(intset.Checker).CheckInvariants(th); err != nil {
							t.Fatalf("after %d ops: %v", i+1, err)
						}
					}
				}
			})
		}
	}
}
