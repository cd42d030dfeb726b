package core

// The paper's fall-back path (Section 3) allocates a separate Mode line;
// fast-path operations include the line in their tag set so that a mode
// change invalidates every in-flight fast-path attempt.
//
// This implementation generalizes the FAST/SLOW flag into a count of
// in-flight slow-path operations. The distinction matters when the slow
// path is itself a multi-step protocol (LLX/SCX): a fast-path commit is
// only safe while *no* slow operation is in flight, not merely after the
// last one flipped the flag back. With a plain flag, thread A could reset
// the mode to FAST while thread B's SCX is still freezing nodes, and a
// fast-path IAS could slip into the middle of B's atomic step. With a
// count, BeginFast only passes at zero, and every entry/exit writes the
// Mode line, invalidating it in every fast-path tag set.
const (
	// ModeFast is the Mode value with no slow-path operations in flight.
	ModeFast uint64 = 0
)

// DefaultFallbackThreshold is the number of consecutive failed fast-path
// attempts after which Fallback switches to the slow path.
const DefaultFallbackThreshold = 16

// Fallback implements the paper's HLE-style fallback protocol around a
// tagged fast path. A Fallback is shared by all threads of one data
// structure; it owns one Mode word in simulated memory holding the number
// of in-flight slow-path operations.
type Fallback struct {
	mem  Memory
	mode Addr
	// Threshold is the number of fast-path attempts callers give an
	// operation before Run switches it to the slow path.
	Threshold int
}

// NewFallback allocates the Mode line (initially FAST / zero) and returns
// the controller.
func NewFallback(mem Memory) *Fallback {
	f := &Fallback{mem: mem, mode: mem.Alloc(1), Threshold: DefaultFallbackThreshold}
	mem.Thread(0).Store(f.mode, ModeFast)
	return f
}

// ModeAddr returns the address of the Mode word, for tests and guards.
func (f *Fallback) ModeAddr() Addr { return f.mode }

// BeginFast tags the Mode line and reports whether the fast path may be
// attempted (no slow operation in flight). The Mode line stays tagged so
// the attempt's final VAS/IAS validates it: any slow-path entry in the
// meantime fails the commit.
func (f *Fallback) BeginFast(t Thread) bool {
	if !t.AddTag(f.mode, WordSize) {
		return false
	}
	return t.Load(f.mode) == ModeFast
}

// EnterSlow registers one slow-path operation (incrementing the count).
// The write invalidates the Mode line at every core that tagged it,
// aborting all in-flight fast-path attempts.
func (f *Fallback) EnterSlow(t Thread) {
	for {
		v := t.Load(f.mode)
		if t.CAS(f.mode, v, v+1) {
			return
		}
	}
}

// ExitSlow deregisters one slow-path operation. Once the count returns to
// zero, fast-path attempts pass BeginFast again (the paper resets the mode
// "after some pre-defined period"; counting makes the reset exact).
func (f *Fallback) ExitSlow(t Thread) {
	for {
		v := t.Load(f.mode)
		if v == 0 {
			panic("core: ExitSlow without matching EnterSlow")
		}
		if t.CAS(f.mode, v, v-1) {
			return
		}
	}
}

// Run executes one operation: it makes up to attempts fast attempts (<= 0
// selects DefaultFallbackThreshold), each only while no slow operation is in
// flight, and otherwise runs slow between EnterSlow and ExitSlow. fast
// reports whether the attempt completed the operation. An attempt that
// commits must call BeginFast once its reads are tagged and before it builds
// what it will publish, so that its VAS/IAS validates the mode together with
// the data; every attempt must leave the tag set cleared. slow must always
// complete the operation.
//
// The check before each attempt is a plain load; the attempt's own BeginFast,
// after its search, is what joins the Mode line to the tag set.
//
// Run returns true if a fast attempt completed the operation, false if the
// slow path was taken — useful for measuring fallback trip rates.
func (f *Fallback) Run(t Thread, attempts int, fast func() bool, slow func()) bool {
	if attempts <= 0 {
		attempts = DefaultFallbackThreshold
	}
	for attempt := 0; attempt < attempts && t.Load(f.mode) == ModeFast; attempt++ {
		if fast() {
			return true
		}
	}
	f.EnterSlow(t)
	slow()
	f.ExitSlow(t)
	return false
}
