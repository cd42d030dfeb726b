package sets_test

import (
	"testing"

	"repro/internal/sets"
	"repro/internal/sets/settest"
)

// casesPerRun is the number of (memory, case) pairs the contract checks
// across the catalogue: every set runs 13 cases on each memory plus 3 on
// machine alone, and the five with retire hooks 2 more on each memory. A
// set or a case that drops out changes it.
const casesPerRun = 16*(13*2+3) + 5*2*2

// TestSetContract holds every set in the catalogue to the set contract on
// both memories (TestSetContract/<set>/<memory>/<case>).
func TestSetContract(t *testing.T) {
	total := 0
	for _, e := range sets.All() {
		n := settest.Count(e)
		total += n
		t.Run(e.Name, func(t *testing.T) {
			t.Logf("%d cases", n)
			settest.Run(t, e)
		})
	}
	if total != casesPerRun {
		t.Errorf("the contract checks %d cases over %d sets, want %d", total, len(sets.All()), casesPerRun)
	}
}
