package stm

import (
	"testing"

	"repro/internal/core"
)

// seqCounter counts one thread's loads of the sequence lock.
type seqCounter struct {
	core.Thread
	seq   core.Addr
	loads uint64
}

func (c *seqCounter) Load(a core.Addr) uint64 {
	if a == c.seq {
		c.loads++
	}
	return c.Thread.Load(a)
}

// TestTaggedReadsLeaveTheClockAlone counts sequence-lock loads in a
// read-only transaction: baseline NOrec polls the lock on every read, the
// tagged variant only at begin. A tagged read is AddTag, Load and Validate;
// the writers' write marks are what make skipping the lock safe.
func TestTaggedReadsLeaveTheClockAlone(t *testing.T) {
	const reads = 8
	forAllTMs(t, 1, func(t *testing.T, mem core.Memory, tm *TM) {
		th := &seqCounter{Thread: mem.Thread(0), seq: tm.SeqAddr()}
		addrs := make([]core.Addr, reads)
		for i := range addrs {
			addrs[i] = mem.Alloc(1)
		}
		attempts := tm.Commits.Load() + tm.Aborts.Load()
		tm.Run(th, func(tx *Tx) {
			for _, a := range addrs {
				tx.Read(a)
			}
		})
		attempts = tm.Commits.Load() + tm.Aborts.Load() - attempts
		perAttempt := uint64(1) // begin
		if !tm.Tagged() {
			perAttempt += reads
		}
		if th.loads != attempts*perAttempt {
			t.Fatalf("%d-read transaction loaded the sequence lock %d times in %d attempt(s), want %d per attempt",
				reads, th.loads, attempts, perAttempt)
		}
	})
}
