// Package schedfuzz drives the memory backends through adversarial
// interleavings so the linearizability harnesses exercise MemTags' failure
// paths — spurious tag evictions, tag-set overflow and fallback Mode-line
// transitions — rather than only the happy path.
//
// The fuzzer is a core.Memory wrapper: every forwarded memory or tag
// operation first consults a seeded per-thread RNG and may yield the
// goroutine (widening preemption windows at the exact points where the
// structures' atomicity arguments live), busy-spin (desynchronizing
// threads that would otherwise proceed in lockstep), or force a spurious
// eviction of a held tag (the advisory-tag event that pure software runs
// never produce). All decisions derive from the seed, so a failing
// schedule's injection sequence is reproducible even though goroutine
// scheduling itself is not.
//
// The package also provides StartModeFlipper, which performs randomized
// fallback-path transitions on a structure's Mode line from a spare
// thread, and WrapSkipValidation, a deliberately broken backend whose
// VAS/IAS skip validation — used to prove the checker catches real
// non-linearizable executions.
package schedfuzz

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/machine"
)

// Config tunes the injection rates. All rates are per-mille per forwarded
// operation.
type Config struct {
	// Seed derives every per-thread injection stream.
	Seed int64
	// GoschedPerMil yields the goroutine, handing the scheduler a
	// preemption point inside the structure's critical windows.
	GoschedPerMil int
	// SpinPerMil busy-spins up to MaxSpin iterations, jittering relative
	// thread progress.
	SpinPerMil int
	// MaxSpin bounds one spin injection.
	MaxSpin int
	// EvictPerMil forces a spurious eviction of a held tag (on backends
	// whose threads are core.TagEvictors; others are left alone).
	EvictPerMil int
}

// Default returns a moderately adversarial configuration.
func Default(seed int64) Config {
	return Config{Seed: seed, GoschedPerMil: 40, SpinPerMil: 40, MaxSpin: 128, EvictPerMil: 8}
}

// Aggressive returns a configuration with wide preemption windows and
// frequent forced evictions, for short targeted runs.
func Aggressive(seed int64) Config {
	return Config{Seed: seed, GoschedPerMil: 120, SpinPerMil: 80, MaxSpin: 256, EvictPerMil: 40}
}

// Memory wraps a backend with schedule fuzzing.
type Memory struct {
	inner   core.Memory
	cfg     Config
	threads []*Thread
}

var _ core.Memory = (*Memory)(nil)

// Wrap fuzzes every thread handle of inner according to cfg.
func Wrap(inner core.Memory, cfg Config) *Memory {
	m := &Memory{inner: inner, cfg: cfg, threads: make([]*Thread, inner.NumThreads())}
	for i := range m.threads {
		m.threads[i] = &Thread{
			inner: inner.Thread(i),
			cfg:   cfg,
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i)*1_000_003 + 17)),
		}
	}
	return m
}

// NumThreads returns the wrapped backend's thread count.
func (m *Memory) NumThreads() int { return m.inner.NumThreads() }

// Thread returns the fuzzed handle for thread id.
func (m *Memory) Thread(id int) core.Thread { return m.threads[id] }

// Alloc forwards to the backend.
func (m *Memory) Alloc(words int) core.Addr { return m.inner.Alloc(words) }

// MaxTags forwards to the backend.
func (m *Memory) MaxTags() int { return m.inner.MaxTags() }

// SpareThread returns the backend's auxiliary controller handle, wrapped
// with this fuzzer's injections, or nil when the backend has none (e.g. a
// deliberately broken checker-test wrapper).
func (m *Memory) SpareThread() core.Thread {
	sp, ok := m.inner.(core.SpareThreader)
	if !ok {
		return nil
	}
	return &Thread{
		inner: sp.SpareThread(),
		cfg:   m.cfg,
		rng:   rand.New(rand.NewSource(m.cfg.Seed ^ 0x5a5a5a5a)),
	}
}

// BeginEpoch forwards epoch alignment when the backend supports it.
func (m *Memory) BeginEpoch() {
	if a, ok := m.inner.(core.EpochAligner); ok {
		a.BeginEpoch()
	}
}

// Thread is one fuzzed handle.
type Thread struct {
	inner core.Thread
	cfg   Config
	rng   *rand.Rand
	// spinSink defeats dead-code elimination of the spin loop; per-thread
	// so spinning threads do not race on (or contend for) a shared word.
	spinSink uint64
}

var _ core.Thread = (*Thread)(nil)

// inject runs at the top of every forwarded operation.
func (t *Thread) inject() {
	c := &t.cfg
	r := t.rng.Intn(1000)
	if r < c.GoschedPerMil {
		runtime.Gosched()
		return
	}
	r -= c.GoschedPerMil
	if r < c.SpinPerMil {
		n := 1
		if c.MaxSpin > 1 {
			n += t.rng.Intn(c.MaxSpin)
		}
		for i := 0; i < n; i++ {
			t.spinSink++
		}
		return
	}
	r -= c.SpinPerMil
	if r < c.EvictPerMil {
		if fe, ok := t.inner.(core.TagEvictor); ok {
			if n := t.inner.TagCount(); n > 0 {
				// Aim at a seeded-random held tag: any position in a
				// hand-over-hand window can be the victim, not just the
				// oldest.
				fe.ForceTagEviction(fe.TaggedLine(t.rng.Intn(n)))
			}
		}
	}
}

// sinkDump absorbs goroutine-local spin counters on exit so their spin
// loops cannot be eliminated as dead code.
var sinkDump atomic.Uint64

// ID returns the thread id.
func (t *Thread) ID() int { return t.inner.ID() }

// Alloc forwards to the backend (no injection: allocation is not a
// synchronization point in any structure).
func (t *Thread) Alloc(words int) core.Addr { return t.inner.Alloc(words) }

// Load forwards with injection.
func (t *Thread) Load(a core.Addr) uint64 { t.inject(); return t.inner.Load(a) }

// Store forwards with injection.
func (t *Thread) Store(a core.Addr, v uint64) { t.inject(); t.inner.Store(a, v) }

// CAS forwards with injection.
func (t *Thread) CAS(a core.Addr, old, new uint64) bool { t.inject(); return t.inner.CAS(a, old, new) }

// AddTag forwards with injection.
func (t *Thread) AddTag(a core.Addr, size int) bool { t.inject(); return t.inner.AddTag(a, size) }

// RemoveTag forwards with injection.
func (t *Thread) RemoveTag(a core.Addr, size int) { t.inject(); t.inner.RemoveTag(a, size) }

// Validate forwards with injection (an eviction injected here lands right
// between a structure's read phase and its commit — the paper's spurious
// failure window).
func (t *Thread) Validate() bool { t.inject(); return t.inner.Validate() }

// VAS forwards with injection.
func (t *Thread) VAS(a core.Addr, v uint64) bool { t.inject(); return t.inner.VAS(a, v) }

// IAS forwards with injection.
func (t *Thread) IAS(a core.Addr, v uint64) bool { t.inject(); return t.inner.IAS(a, v) }

// ClearTagSet forwards without injection.
func (t *Thread) ClearTagSet() { t.inner.ClearTagSet() }

// TagCount forwards without injection.
func (t *Thread) TagCount() int { return t.inner.TagCount() }

// MarkWrite forwards with injection.
func (t *Thread) MarkWrite(a core.Addr, size int) { t.inject(); t.inner.MarkWrite(a, size) }

// UnmarkWrites forwards without injection.
func (t *Thread) UnmarkWrites() { t.inner.UnmarkWrites() }

// SetActive forwards lax-clock enrolment when the backend supports it.
func (t *Thread) SetActive(on bool) {
	if a, ok := t.inner.(core.LaxClocked); ok {
		a.SetActive(on)
	}
}

// JitterSyncWindow replaces cfg.SyncWindowCycles with a seeded adversarial
// value in [64, 4096): small windows force fine-grained core interleaving,
// large ones let cores race far ahead — both shake out orderings the
// default window never produces.
func JitterSyncWindow(cfg *machine.Config, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eedc0de))
	cfg.SyncWindowCycles = uint64(64 + rng.Intn(4032))
}

// StartModeFlipper begins randomized fallback Mode-line transitions on th
// (which must be a spare handle no worker uses): it repeatedly registers
// and deregisters a phantom slow-path operation, invalidating every
// in-flight fast-path tag set and forcing structures through their
// fast/slow transition logic. The returned stop function blocks until the
// flipper has exited and the mode count is back to its resting value.
func StartModeFlipper(th core.Thread, mode core.Addr, seed int64) (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x0ddf11b))
		var spinSink uint64
		defer func() { sinkDump.Add(spinSink) }()
		for !done.Load() {
			// Enter: one phantom slow-path op in flight.
			for {
				v := th.Load(mode)
				if th.CAS(mode, v, v+1) {
					break
				}
			}
			for i := rng.Intn(64); i > 0; i-- {
				spinSink++
			}
			runtime.Gosched()
			// Exit: undo exactly our own registration.
			for {
				v := th.Load(mode)
				if th.CAS(mode, v, v-1) {
					break
				}
			}
			for i := rng.Intn(256); i > 0; i-- {
				spinSink++
			}
			runtime.Gosched()
		}
	}()
	return func() {
		done.Store(true)
		wg.Wait()
	}
}

// skipValidationMemory is a deliberately broken backend for checker tests:
// see WrapSkipValidation.
type skipValidationMemory struct {
	core.Memory
	inner core.Memory
}

// WrapSkipValidation returns a backend whose threads treat every VAS/IAS
// as an unconditional store and every Validate as success — MemTags with
// the validation elided. Structures run on it complete and keep their
// memory safety, but their atomicity argument is gone, so concurrent runs
// produce non-linearizable histories. Tests use it to prove the checker
// (not just the structures) is doing its job.
func WrapSkipValidation(inner core.Memory) core.Memory {
	return &skipValidationMemory{Memory: inner, inner: inner}
}

func (m *skipValidationMemory) Thread(id int) core.Thread {
	return &skipValidationThread{Thread: m.inner.Thread(id)}
}

type skipValidationThread struct {
	core.Thread
}

// Validate always passes: evictions and conflicts go unnoticed.
func (t *skipValidationThread) Validate() bool { return true }

// VAS commits without validating.
func (t *skipValidationThread) VAS(a core.Addr, v uint64) bool {
	t.Thread.Store(a, v)
	return true
}

// IAS commits without validating.
func (t *skipValidationThread) IAS(a core.Addr, v uint64) bool {
	t.Thread.Store(a, v)
	return true
}
