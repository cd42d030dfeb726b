package telemetry

import "sync/atomic"

// seqRetryLimit bounds a reader's attempts at one record before it skips
// it: a sequence word that stays odd means the writer is mid-publish (or
// parked by a test hook), and a metrics scrape must not spin on it.
const seqRetryLimit = 8

// seqRing is the package's one seqlock: a single-writer ring of fixed-width
// records that any goroutine may read while the writer publishes. Stream
// windows, FlightRecorder spans and the exemplar all go through it (record
// layouts: DESIGN.md, "Telemetry core").
//
// Each record is one sequence word followed by `words` payload words. The
// writer makes the sequence odd (begin), stores the payload, makes it even
// and advances head (commit). A reader copies the payload between two loads
// of the sequence word and retries on an odd or changed sequence, so every
// copy it returns is one the writer committed whole. All words are atomics,
// which keeps the protocol clean under the race detector as well as on
// paper. Nothing here allocates after newSeqRing.
type seqRing struct {
	words, depth uint64
	head         atomic.Uint64 // records committed so far; the next record's index
	buf          []atomic.Uint64
}

func newSeqRing(depth, words int) seqRing {
	return seqRing{
		words: uint64(words),
		depth: uint64(depth),
		buf:   make([]atomic.Uint64, depth*(words+1)),
	}
}

// record returns record i's sequence word followed by its payload.
func (r *seqRing) record(i uint64) []atomic.Uint64 {
	off := i % r.depth * (r.words + 1)
	return r.buf[off : off+r.words+1]
}

// begin opens the next record (over the oldest one) and returns its payload
// words for the writer to store into; commit must follow. Writer only.
func (r *seqRing) begin() []atomic.Uint64 {
	rec := r.record(r.head.Load())
	rec[0].Add(1)
	return rec[1:]
}

// commit publishes the record opened by begin.
func (r *seqRing) commit() {
	r.record(r.head.Load())[0].Add(1)
	r.head.Add(1)
}

// span returns the index range [lo, hi) of the records the ring retains;
// hi is also the number of records ever committed.
func (r *seqRing) span() (lo, hi uint64) {
	hi = r.head.Load()
	if hi > r.depth {
		lo = hi - r.depth
	}
	return lo, hi
}

// read copies record i's payload into dst (len(dst) <= words). It reports
// whether a consistent copy was obtained within the retry budget, and the
// retries burned.
func (r *seqRing) read(i uint64, dst []uint64) (ok bool, retries int) {
	rec := r.record(i)
	for ; retries < seqRetryLimit; retries++ {
		seq := rec[0].Load()
		if seq%2 != 0 {
			continue
		}
		for k := range dst {
			dst[k] = rec[1+k].Load()
		}
		if rec[0].Load() == seq {
			return true, retries
		}
	}
	return false, retries
}
