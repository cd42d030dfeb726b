package intset

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/history"
)

// The seeded loops every harness shares. Their rng draw order is part of
// every recorded history and of the schedule explorer's replay digests:
// changing it changes what a seed means.

// apply runs one set operation, named by its history op code.
func apply(s Set, th core.Thread, op uint8, k uint64) bool {
	switch op {
	case history.OpInsert:
		return s.Insert(th, k)
	case history.OpDelete:
		return s.Delete(th, k)
	default:
		return s.Contains(th, k)
	}
}

// recordedOp draws a key from [KeyMin, KeyMin+keyRange), then one of
// insert, delete and contains, runs it on th and records it on sh. The key
// is recorded less bias: the set model takes keys as they are (bias 0),
// the snapshot model numbers them from 0 (bias KeyMin).
func recordedOp(th core.Thread, s Set, sh *history.Shard, rng *rand.Rand, keyRange, bias uint64) bool {
	k := KeyMin + uint64(rng.Int63n(int64(keyRange)))
	op := uint8(rng.Intn(3)) // OpInsert, OpDelete, OpContains
	idx := sh.Begin(op, k-bias, 0)
	ok := apply(s, th, op, k)
	sh.End(idx, ok, 0)
	return ok
}

// RecordedPrefill is Prefill with every insert attempt — duplicates that
// return false included, since a checker must see every effect on the
// structure — recorded on sh less bias (see recordedOp). The key sequence
// is Prefill's for the same seed. It returns the number of keys inserted.
func RecordedPrefill(th core.Thread, s Set, sh *history.Shard, n int, keyRange uint64, seed int64, bias uint64) int {
	rng := rand.New(rand.NewSource(seed))
	inserted := 0
	for inserted < n {
		k := KeyMin + uint64(rng.Int63n(int64(keyRange)))
		idx := sh.Begin(history.OpInsert, k-bias, 0)
		ok := s.Insert(th, k)
		sh.End(idx, ok, 0)
		if ok {
			inserted++
		}
	}
	return inserted
}

// prefillSeed derives the recorded prefill's stream from a run's seed.
func prefillSeed(seed int64) int64 { return seed ^ 0x9e3779b9 }

// workerRand is worker w's op stream for a run's seed.
func workerRand(seed int64, w int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(w)*7919 + 1))
}

// recordedWorkers returns the phase body (core.RunPhase's and
// schedexplore.Setup's signature) in which worker w performs ops recorded
// point operations on shard w.
func recordedWorkers(s Set, rec *history.Recorder, seed int64, ops int, keyRange uint64) func(w int, th core.Thread) {
	return func(w int, th core.Thread) {
		sh, rng := rec.Shard(w), workerRand(seed, w)
		for i := 0; i < ops; i++ {
			recordedOp(th, s, sh, rng, keyRange, 0)
		}
	}
}

// KeyCounts is the oracle for unrecorded mixed runs over a small shared key
// range: each worker tallies its successful inserts and deletes per key,
// and afterwards every key's net count must be 0 or 1 and equal its final
// membership. Worker w writes only row w.
type KeyCounts struct {
	keyRange uint64
	net      [][]int64 // [worker][key-KeyMin] successful inserts minus deletes
}

// NewKeyCounts sizes the oracle for workers over [KeyMin, KeyMin+keyRange).
func NewKeyCounts(workers int, keyRange uint64) *KeyCounts {
	c := &KeyCounts{keyRange: keyRange, net: make([][]int64, workers)}
	for w := range c.net {
		c.net[w] = make([]int64, keyRange)
	}
	return c
}

// Step draws a key, then an operation, runs it on th as worker w and
// tallies a success. It returns the history op code it ran.
func (c *KeyCounts) Step(w int, th core.Thread, s Set, rng *rand.Rand) uint8 {
	idx := rng.Intn(int(c.keyRange))
	op := uint8(rng.Intn(3)) // OpInsert, OpDelete, OpContains
	if apply(s, th, op, KeyMin+uint64(idx)) {
		switch op {
		case history.OpInsert:
			c.net[w][idx]++
		case history.OpDelete:
			c.net[w][idx]--
		}
	}
	return op
}

// Verify checks, at quiescence, every key's net count against s, then runs
// the quiescent structural check.
func (c *KeyCounts) Verify(th core.Thread, s Set) error {
	for idx := uint64(0); idx < c.keyRange; idx++ {
		var net int64
		for w := range c.net {
			net += c.net[w][idx]
		}
		k := KeyMin + idx
		if net != 0 && net != 1 {
			return fmt.Errorf("key %d: net successful inserts %d — success reporting broken", k, net)
		}
		if got, want := s.Contains(th, k), net == 1; got != want {
			return fmt.Errorf("key %d: Contains = %v, want %v", k, got, want)
		}
	}
	return checkQuiescent(th, s)
}
