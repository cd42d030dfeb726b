//go:build memtagcheck

package vtags

// debugGuard enables the write-mark owner check: MarkWrite of a line
// another thread marks panics instead of skipping it (core.Thread.MarkWrite
// allows one marker per line). Build with -tags memtagcheck.
const debugGuard = true
