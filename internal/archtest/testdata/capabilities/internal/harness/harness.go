package harness

type opClocked interface{ OpClock() (uint64, uint64) }

// enrol asserts a capability through a multi-line literal.
func enrol(th any) {
	if lc, ok := th.(interface {
		Load(a uint64) uint64
		SetActive(on bool)
	}); ok {
		_ = lc
	}
}
