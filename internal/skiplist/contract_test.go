package skiplist_test

import (
	"testing"

	"repro/internal/sets"
	"repro/internal/sets/settest"
)

// The generic set tests below keep their names: each runs cases of the set
// contract (internal/sets/settest) on the catalogue's skip lists.

var skiplists = []sets.Entry{
	settest.Catalogued("CAS", "skiplist-cas"),
	settest.Catalogued("VAS", "skiplist-vas"),
}

func TestSkipBasic(t *testing.T) { settest.Each(t, "must/insert-delete-contains", skiplists...) }
func TestSkipSequentialEquivalence(t *testing.T) {
	settest.Each(t, "must/sequential-narrow", skiplists...)
}
func TestSkipSortedEnumeration(t *testing.T) {
	settest.EachOn(t, settest.VTags, "must/keys-sorted", settest.Catalogued("vas", "skiplist-vas"))
}
func TestSkipDisjointConcurrent(t *testing.T) {
	settest.Each(t, "must/disjoint-concurrent", skiplists...)
}
func TestSkipMixedConcurrent(t *testing.T) { settest.Each(t, "must/mixed-concurrent-32", skiplists...) }
func TestSkipHighContentionTinyRange(t *testing.T) {
	settest.Each(t, "must/mixed-concurrent-4", skiplists...)
}

func TestLinearizableVTags(t *testing.T) {
	settest.EachOn(t, settest.VTags, "must/linearizable",
		settest.Catalogued("cas", "skiplist-cas"),
		settest.Catalogued("vas", "skiplist-vas"))
}
