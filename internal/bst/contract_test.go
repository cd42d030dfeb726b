package bst_test

import (
	"testing"

	"repro/internal/sets"
	"repro/internal/sets/settest"
)

// The generic set tests below keep their names: each runs cases of the set
// contract (internal/sets/settest) on the catalogue's external BSTs.

var trees = []sets.Entry{
	settest.Catalogued("LLX", "llx-bst"),
	settest.Catalogued("HoH", "hoh-bst"),
}

func TestBSTBasic(t *testing.T)      { settest.Each(t, "must/insert-delete-contains", trees...) }
func TestBSTGrowShrink(t *testing.T) { settest.Each(t, "must/grow-drain-", trees...) }
func TestBSTSequentialEquivalence(t *testing.T) {
	settest.Each(t, "must/sequential-narrow", trees...)
}
func TestBSTDisjointConcurrent(t *testing.T) { settest.Each(t, "must/disjoint-concurrent", trees...) }
func TestBSTMixedConcurrent(t *testing.T)    { settest.Each(t, "must/mixed-concurrent-32", trees...) }
func TestBSTHighContention(t *testing.T)     { settest.Each(t, "must/mixed-concurrent-4", trees...) }

func TestBSTInterVariantAgreement(t *testing.T) {
	settest.EachOn(t, settest.VTags, "must/sequential-", trees...)
}

func TestContainsAllocatesNothing(t *testing.T) {
	settest.EachOn(t, settest.VTags, "must/contains-allocates-nothing", trees...)
}

func TestLinearizableVTags(t *testing.T) {
	settest.EachOn(t, settest.VTags, "must/linearizable",
		settest.Catalogued("llx", "llx-bst"),
		settest.Catalogued("hoh", "hoh-bst"))
}
