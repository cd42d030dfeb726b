//go:build !memtagcheck

package core

// Checked is the one switch of the memtagcheck build tag. Off in default
// builds, where the compiler removes every `if core.Checked` block, so hot
// paths pay nothing. Build with -tags memtagcheck to arm:
//   - machine's Snapshot quiescence guard: every memory/tag operation
//     counts itself in flight, and Snapshot panics if any core is
//     mid-operation, so a race between stat aggregation and running cores
//     fails instead of tearing a snapshot;
//   - both backends' write-mark owner check: MarkWrite of a line another
//     thread marks panics instead of being skipped;
//   - reclaim's use-after-free guard, the default of every domain: a
//     per-line live/retired/free state machine (a host mutex and a map
//     lookup per alloc and retire) that panics on a double retire, an alloc
//     of a non-free line, or a tag validation covering a freed line.
const Checked = false
