package harness

import pool "repro/internal/reclaim"

// NewPool is harness's own function, not reclaim's: not convicted.
func NewPool() {}

func wire() {
	_ = pool.NewPool(nil, 4, 0)
	NewPool()
}
