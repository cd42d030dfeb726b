package txset_test

import (
	"testing"

	"repro/internal/sets"
	"repro/internal/sets/settest"
)

// The generic set tests below keep their names: each runs cases of the set
// contract (internal/sets/settest) on the catalogue's STM sets.

var txsets = []sets.Entry{
	settest.Catalogued("NOrec", "norec-set"),
	settest.Catalogued("Tagged", "tagged-set"),
}

func TestTxSetSequential(t *testing.T) { settest.Each(t, "must/sequential-narrow", txsets...) }
func TestTxSetConcurrentDisjoint(t *testing.T) {
	settest.Each(t, "must/disjoint-concurrent", txsets...)
}
func TestTxSetConcurrentMixed(t *testing.T) { settest.Each(t, "must/mixed-concurrent-32", txsets...) }
