//go:build !memtagcheck

package vtags

// debugGuard disables the write-mark owner check in default builds; the
// compiler removes every `if debugGuard` block. See guard_on.go.
const debugGuard = false
