package core

import (
	"fmt"
	"sync"
)

// Optional capabilities. Memory and Thread are the paper's contract; the
// interfaces below are everything a harness may additionally ask of a
// backend, each named here once. A harness type-asserts against these
// names and does without when the assertion fails. (The two attach hooks
// whose argument types core cannot import are named beside those types:
// telemetry.Attacher and reclaim.Attacher.) internal/coretest states what
// each capability must do and runs it against every Memory in the tree.

// EpochAligner is a Memory whose threads carry clocks that drift apart
// during sequential setup. BeginEpoch aligns them (as if every thread
// idled at a barrier) and must be called while quiescent.
type EpochAligner interface{ BeginEpoch() }

// LaxClocked is a Thread that can be enrolled in lax clock
// synchronization: while active it is kept within a bounded window of
// simulated time of the slowest active thread, so interleaving follows
// simulated time rather than host scheduling. Inactive threads neither
// stall nor hold others back.
type LaxClocked interface{ SetActive(on bool) }

// OpClocked is a Thread with a monotonic clock (simulated cycles, or one
// tick per operation) and a cumulative count of failed Validate, VAS and
// IAS calls. Per-op telemetry diffs both across a structure operation.
type OpClocked interface{ OpClock() (clock, fails uint64) }

// SpareThreader is a Memory with an auxiliary handle outside the counted
// thread set, for harness controllers (the fallback Mode-line flipper).
// The handle is a Load/Store/CAS/Alloc participant only: tag operations
// on it are outside the contract. SpareThread may return nil.
type SpareThreader interface{ SpareThread() Thread }

// TagEvictor is a Thread on which a harness can aim a spurious eviction
// at one held tag: TaggedLine(i) names the i'th tagged line, i <
// TagCount(); ForceTagEviction(l) fails every validation until
// ClearTagSet when l is tagged, and is a no-op reporting false otherwise.
type TagEvictor interface {
	TaggedLine(i int) Line
	ForceTagEviction(l Line) bool
}

// Traceable is a Memory that reports its events to a Tracer; nil
// detaches. Only call while quiescent.
type Traceable interface{ SetTracer(tr Tracer) }

// RunPhase runs body(w, mem.Thread(w)) on one goroutine per worker w in
// [0, workers) and returns when all have finished. It is the one protocol
// for a parallel phase over a Memory: align the epoch if the memory can,
// fork, enrol every worker in lax clock synchronization if its thread
// can, release the workers only once all are enrolled (a worker that ran
// before the others enrolled would race ahead of them in simulated time,
// and on a host with few CPUs the phase would start serialized), and
// withdraw each worker when its body returns, panics or calls
// runtime.Goexit. mem must be quiescent on entry.
func RunPhase(mem Memory, workers int, body func(w int, th Thread)) {
	if n := mem.NumThreads(); workers > n {
		panic(fmt.Sprintf("core.RunPhase: %d workers over a memory with %d threads", workers, n))
	}
	if ea, ok := mem.(EpochAligner); ok {
		ea.BeginEpoch()
	}
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(workers)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			th := mem.Thread(w)
			if lc, ok := th.(LaxClocked); ok {
				lc.SetActive(true)
				defer lc.SetActive(false)
			}
			ready.Done()
			<-start
			body(w, th)
		}(w)
	}
	ready.Wait()
	close(start)
	done.Wait()
}
