//go:build memtagcheck

package coretest

import "testing"

// TestSecondMarkerPanics pins the memtagcheck check of core.Thread.MarkWrite's
// one-marker rule on every memory: re-marking an own line is allowed, marking
// a line another thread marks panics. Without the tag the backends fail
// differently (machine takes the mark over, vtags skips the line).
func TestSecondMarkerPanics(t *testing.T) {
	for _, m := range memories {
		t.Run(m.name, func(t *testing.T) {
			mem := m.newMem(2, 8)
			t0, t1 := mem.Thread(0), mem.Thread(1)
			a := mem.Alloc(1)
			t0.MarkWrite(a, 1)
			t0.MarkWrite(a, 1)
			defer t0.UnmarkWrites()
			defer func() {
				if recover() == nil {
					t.Error("a second thread marked a marked line without a panic")
				}
			}()
			t1.MarkWrite(a, 1)
		})
	}
}
