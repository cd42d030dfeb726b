package intset_test

import (
	"testing"

	"repro/internal/sets/settest"
)

// TestBackendDifferential is the set contract's must/agrees-with-vtags
// case (internal/sets/settest, where it runs on every set) under this
// test's names: identical seeded single-thread operation sequences must
// give the same per-operation results and the same final keys on the
// cycle-level machine as on the versioned-emulation backend.
func TestBackendDifferential(t *testing.T) {
	settest.EachOn(t, settest.Machine, "must/agrees-with-vtags",
		settest.Catalogued("list-harris", "harris-list"),
		settest.Catalogued("list-vas", "vas-list"),
		settest.Catalogued("list-hoh", "hoh-list"),
		settest.Catalogued("skiplist-cas", "skiplist-cas"),
		settest.Catalogued("skiplist-vas", "skiplist-vas"),
		settest.Catalogued("abtree-llx", "llx-tree"),
		settest.Catalogued("abtree-hoh", "hoh-tree"))
}
