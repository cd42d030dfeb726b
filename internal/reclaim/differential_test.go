package reclaim_test

import (
	"testing"

	"repro/internal/sets/settest"
)

// The reclamation differential is the set contract's reclaim/… cases
// (internal/sets/settest): every set with retire hooks, built from the
// catalogue, must give linearizable histories under schedule fuzzing with
// the immediate policy and with the epoch baseline, with the checked-mode
// guard observing no violation and the pool actually recycling memory; the
// contract's must/linearizable is the no-reclamation control arm. The
// tests below run those cases under the names the sets had here before
// the catalogue.

func TestDifferentialReclaimVTags(t *testing.T) {
	settest.EachOn(t, settest.VTags, "reclaim/",
		settest.Catalogued("vas-list", "vas-list"),
		settest.Catalogued("hoh-list", "hoh-list"),
		settest.Catalogued("vas-skiplist", "skiplist-vas"),
		settest.Catalogued("hoh-abtree", "hoh-tree"),
		settest.Catalogued("txset-tagged", "tagged-set"))
}

// TestDifferentialReclaimMachine runs a subset on the cycle-accurate
// backend, its sync window jittered: retire's tag-dooming stores go
// through the MESI directory, so the immediate condition is exercised
// against real invalidation traffic.
func TestDifferentialReclaimMachine(t *testing.T) {
	settest.EachOn(t, settest.JitteredMachine(11), "reclaim/",
		settest.Catalogued("vas-list", "vas-list"),
		settest.Catalogued("hoh-abtree", "hoh-tree"))
}
