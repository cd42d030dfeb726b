package machine

// OpClock returns this core's backend clock (simulated cycles) and its
// cumulative validation/commit failure count, the two inputs per-op
// telemetry needs: latency is the cycle delta across an operation, and
// retries the failure delta. Single-writer — call from the goroutine
// driving this core (or at quiescence).
func (t *Thread) OpClock() (clock, fails uint64) {
	return t.stats.Cycles, t.stats.ValidateFails + t.stats.VASFails + t.stats.IASFails
}
