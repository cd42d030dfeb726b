package bst

import (
	"testing"

	"repro/internal/vtags"
)

// TestHoHBSTDeleteInvalidatesWindow pins the synchronization rule for the
// two-node removal chain: after a delete, a thread holding tags on the
// removed parent or leaf fails validation.
func TestHoHBSTDeleteInvalidatesWindow(t *testing.T) {
	mem := vtags.New(8<<20, 2)
	s := NewHoH(mem)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	s.Insert(t0, 10)
	s.Insert(t0, 20)

	// t1 pauses holding tags on the leaf 10 and its parent.
	a := s.Begin(t1)
	_, _, l := a.Locate(10)
	if KeyOf(t1, l) != 10 {
		t.Fatal("locate found wrong leaf")
	}
	if !t1.Validate() {
		t.Fatal("window invalid before delete")
	}
	if !s.Delete(t0, 10) {
		t.Fatal("delete failed")
	}
	if t1.Validate() {
		t.Fatal("delete did not invalidate the removed window")
	}
	t1.ClearTagSet()
}
