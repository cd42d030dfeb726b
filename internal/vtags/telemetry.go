package vtags

// Observability for the emulation. The vtags backend has no cost model, so
// its clock is logical: every memory/tag operation advances the thread's
// tick counter by one, and per-op "latency" reads as memory operations per
// structure operation. Tracing speaks the shared core.Event/core.Tracer
// vocabulary so the same Perfetto exporter (and the backend-differential
// parity test) consumes both: the emulation emits exactly the tag-relevant
// subset of core.EventKind — TagAdd/TagRemove/TagEvicted, Validate*,
// Commit*/VAS/IAS failures — with ticks in the Cycle field. Conflicts are
// not traced at *detection* (a failed Validate names no line): on hardware
// the TagEvicted event belongs to the writer that invalidated the line.
// The emulation does keep a per-line sharer index now (the mask in
// lineState.word), and a writer knows whose bits it took, but the index is
// deliberately imprecise: bits are sticky, so a taken bit says the thread
// tagged the line at some point, not that it holds a tag now, and threads
// beyond the mask's width are not in it at all. TagEvicted attribution is
// therefore still not claimed, and only explicit ForceTagEviction emits
// TagEvicted here.

// OpClock returns this thread's logical clock (one tick per memory/tag
// operation) and its cumulative validation/commit failure count, the two
// inputs per-op telemetry needs. Single-writer — call from the goroutine
// owning the handle (or at quiescence).
func (t *Thread) OpClock() (clock, fails uint64) { return t.ticks, t.fails }
