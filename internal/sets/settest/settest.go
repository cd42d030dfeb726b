// Package settest is the set contract, executable: what every set in the
// catalogue (internal/sets) must do on both memories, vtags and machine.
// Run holds one entry to every case that applies to it; Each and EachOn run
// some cases over a list of entries, for a structure package whose tests
// keep a name of their own or build a shape the catalogue does not (the
// (a,b)-tree at (2,4), say). It is library code only so that those tests
// can import it; internal/sets's TestSetContract runs it on every entry.
//
// Cases are named must/…, explore/… (machine only: the schedule explorer
// gates simulated cores) and reclaim/… (sets with retire hooks only).
// Under -short every op count is a third (intset.LinearizeOps), for the
// race-enabled CI lane.
// DESIGN.md §3d maps each property to its case.
package settest

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/reclaim"
	"repro/internal/schedexplore"
	"repro/internal/schedfuzz"
	"repro/internal/sets"
	"repro/internal/vtags"
)

// Memory is one memory the contract runs on.
type Memory struct {
	Name string
	New  func(threads int) core.Memory
}

// The two memories every case runs on. A set with a MachineTags budget
// runs on a Machine with that many tags per core.
var (
	VTags   = Memory{"vtags", func(n int) core.Memory { return vtags.New(64<<20, n) }}
	Machine = Memory{"machine", func(n int) core.Memory { return newMachine(n, 0, nil) }}
)

// JitteredMachine is Machine with its lax-clock sync window jittered by
// seed (schedfuzz.JitterSyncWindow).
func JitteredMachine(seed int64) Memory {
	return Memory{"machine-jitter", func(n int) core.Memory { return newMachine(n, 0, &seed) }}
}

func newMachine(threads, tags int, jitter *int64) core.Memory {
	cfg := machine.DefaultConfig(threads)
	cfg.MemBytes = 64 << 20
	if tags > 0 {
		cfg.MaxTags = tags
	}
	if jitter != nil {
		schedfuzz.JitterSyncWindow(&cfg, *jitter)
	}
	return machine.New(cfg)
}

// Memories lists them, the reference first: a case comparing memories
// compares the others with it.
var Memories = []Memory{VTags, Machine}

// setCase is one property of a set on one memory.
type setCase struct {
	name string
	// on reports whether the case applies to e on m; nil means always.
	on func(e sets.Entry, m Memory) bool
	// parallel cases run beside their siblings; the rest run one at a
	// time (an allocation count reads process-wide counters).
	parallel bool
	run      func(t *testing.T, e sets.Entry, m Memory)
}

func onMachine(_ sets.Entry, m Memory) bool    { return m.Name == Machine.Name }
func reclaimable(e sets.Entry, _ Memory) bool  { return e.Pool != nil }
func notReference(_ sets.Entry, m Memory) bool { return m.Name != VTags.Name }

// contract lists the cases in the order Run runs them.
var contract = []setCase{
	{"must/empty", nil, false, empty},
	{"must/insert-delete-contains", nil, false, insertDeleteContains},
	{"must/boundary-keys", nil, false, boundaryKeys},
	{"must/keys-sorted", nil, false, keysSorted},
	{"must/grow-drain-ascending", nil, false, func(t *testing.T, e sets.Entry, m Memory) { growDrain(t, e, m, false) }},
	{"must/grow-drain-descending", nil, false, func(t *testing.T, e sets.Entry, m Memory) { growDrain(t, e, m, true) }},
	{"must/sequential-narrow", nil, false, func(t *testing.T, e sets.Entry, m Memory) {
		mem := m.New(1)
		intset.CheckSequential(t, mem, e.New(mem), intset.LinearizeOps(2000), 128, 42)
	}},
	{"must/sequential-wide", nil, false, func(t *testing.T, e sets.Entry, m Memory) {
		mem := m.New(1)
		intset.CheckSequential(t, mem, e.New(mem), intset.LinearizeOps(1000), 1<<40, 7)
	}},
	{"must/agrees-with-vtags", notReference, false, agreesWithReference},
	{"must/contains-allocates-nothing", nil, false, containsAllocatesNothing},
	{"must/disjoint-concurrent", nil, true, func(t *testing.T, e sets.Entry, m Memory) {
		mem := m.New(4)
		intset.CheckDisjointConcurrent(t, mem, e.New(mem), 4, intset.LinearizeOps(300))
	}},
	{"must/mixed-concurrent-32", nil, true, func(t *testing.T, e sets.Entry, m Memory) {
		mem := m.New(4)
		intset.CheckMixedConcurrent(t, mem, e.New(mem), 4, intset.LinearizeOps(250), 32)
	}},
	{"must/mixed-concurrent-4", nil, true, func(t *testing.T, e sets.Entry, m Memory) {
		mem := m.New(4)
		intset.CheckMixedConcurrent(t, mem, e.New(mem), 4, intset.LinearizeOps(200), 4)
	}},
	{"must/linearizable", nil, true, func(t *testing.T, e sets.Entry, m Memory) { linearizable(t, e, m, -1) }},
	{"explore/random-walk", onMachine, true, func(t *testing.T, e sets.Entry, m Memory) { explore(t, e, m, schedexplore.RandomWalk) }},
	{"explore/pct", onMachine, true, func(t *testing.T, e sets.Entry, m Memory) { explore(t, e, m, schedexplore.PCT) }},
	{"reclaim/immediate", reclaimable, true, func(t *testing.T, e sets.Entry, m Memory) { linearizable(t, e, m, reclaim.PolicyImmediate) }},
	{"reclaim/epoch", reclaimable, true, func(t *testing.T, e sets.Entry, m Memory) { linearizable(t, e, m, reclaim.PolicyEpoch) }},
}

func (c setCase) applies(e sets.Entry, m Memory) bool { return c.on == nil || c.on(e, m) }

// Run checks e against every case that applies to it, one subtest per
// memory and case (<memory>/<case>).
func Run(t *testing.T, e sets.Entry) {
	for _, m := range Memories {
		t.Run(m.Name, func(t *testing.T) {
			for _, c := range contract {
				if c.applies(e, m) {
					runCase(t, c, e, m)
				}
			}
		})
	}
}

// Count returns the number of (memory, case) pairs Run checks e on.
func Count(e sets.Entry) int {
	n := 0
	for _, m := range Memories {
		for _, c := range contract {
			if c.applies(e, m) {
				n++
			}
		}
	}
	return n
}

// Each runs the cases whose names start with prefix on every entry, on
// both memories (<memory>/<entry>/<case>).
func Each(t *testing.T, prefix string, entries ...sets.Entry) {
	for _, m := range Memories {
		t.Run(m.Name, func(t *testing.T) { EachOn(t, m, prefix, entries...) })
	}
}

// EachOn is Each on the memory m alone (<entry>/<case>); m may be one
// of Memories or a memory of the caller's (a squeezed cache, say).
func EachOn(t *testing.T, m Memory, prefix string, entries ...sets.Entry) {
	for _, e := range entries {
		var cases []setCase
		for _, c := range contract {
			if strings.HasPrefix(c.name, prefix) && c.applies(e, m) {
				cases = append(cases, c)
			}
		}
		if len(cases) == 0 {
			t.Fatalf("no case %s… applies to %s on %s", prefix, e.Name, m.Name)
		}
		t.Run(e.Name, func(t *testing.T) {
			for _, c := range cases {
				runCase(t, c, e, m)
			}
		})
	}
}

// Catalogued returns the catalogue's set named name under the name label.
func Catalogued(label, name string) sets.Entry {
	e := sets.Must(name)
	e.Name = label
	return e
}

func runCase(t *testing.T, c setCase, e sets.Entry, m Memory) {
	if e.MachineTags > 0 && m.Name == Machine.Name {
		m.New = func(n int) core.Memory { return newMachine(n, e.MachineTags, nil) }
	}
	t.Run(c.name, func(t *testing.T) {
		if c.parallel {
			t.Parallel()
		}
		c.run(t, e, m)
	})
}

func empty(t *testing.T, e sets.Entry, m Memory) {
	mem := m.New(1)
	s, th := e.New(mem), mem.Thread(0)
	if s.Contains(th, 5) || s.Delete(th, 5) {
		t.Fatal("empty set reports key 5")
	}
	intset.VerifyAgainstReference(t, th, s, intset.Reference{}, 8)
}

func insertDeleteContains(t *testing.T, e sets.Entry, m Memory) {
	mem := m.New(1)
	s, th := e.New(mem), mem.Thread(0)
	if !s.Insert(th, 10) || !s.Insert(th, 5) || !s.Insert(th, 20) {
		t.Fatal("fresh inserts failed")
	}
	if s.Insert(th, 10) {
		t.Fatal("duplicate insert succeeded")
	}
	for _, k := range []uint64{5, 10, 20} {
		if !s.Contains(th, k) {
			t.Fatalf("missing key %d", k)
		}
	}
	if s.Contains(th, 15) {
		t.Fatal("contains absent key")
	}
	if !s.Delete(th, 10) || s.Delete(th, 10) || s.Contains(th, 10) {
		t.Fatal("delete semantics")
	}
	if s.Delete(th, 15) {
		t.Fatal("delete of an absent key succeeded")
	}
	if !s.Contains(th, 5) || !s.Contains(th, 20) {
		t.Fatal("neighbours lost by delete")
	}
	intset.VerifyAgainstReference(t, th, s, intset.Reference{5: true, 20: true}, 32)
}

func boundaryKeys(t *testing.T, e sets.Entry, m Memory) {
	mem := m.New(1)
	s, th := e.New(mem), mem.Thread(0)
	for _, k := range []uint64{intset.KeyMin, intset.KeyMax} {
		if !s.Insert(th, k) || !s.Contains(th, k) {
			t.Fatalf("boundary key %d not inserted", k)
		}
		if !s.Delete(th, k) || s.Contains(th, k) {
			t.Fatalf("boundary key %d not deleted", k)
		}
	}
	intset.VerifyAgainstReference(t, th, s, intset.Reference{}, 8)
}

func keysSorted(t *testing.T, e sets.Entry, m Memory) {
	mem := m.New(1)
	s, th := e.New(mem), mem.Thread(0)
	for _, k := range []uint64{9, 3, 7, 1, 5} {
		s.Insert(th, k)
	}
	s.Delete(th, 7)
	if got, want := s.(intset.Snapshotter).Keys(th), []uint64{1, 3, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	intset.VerifyAgainstReference(t, th, s, intset.Reference{1: true, 3: true, 5: true, 9: true}, 16)
}

// growDrain inserts 1..n (300, 100 under -short) in one direction,
// deletes every other key and then the rest, checking membership, keys and
// invariants after each phase; the drained set must take keys again (its
// sentinels survive).
func growDrain(t *testing.T, e sets.Entry, m Memory, descending bool) {
	n := uint64(intset.LinearizeOps(300))
	mem := m.New(1)
	s, th := e.New(mem), mem.Thread(0)
	key := func(i uint64) uint64 {
		if descending {
			return n + 1 - i
		}
		return i
	}
	ref := intset.Reference{}
	for i := uint64(1); i <= n; i++ {
		if !s.Insert(th, key(i)) {
			t.Fatalf("insert %d failed", key(i))
		}
		ref.Insert(key(i))
	}
	intset.VerifyAgainstReference(t, th, s, ref, n)
	for pass := uint64(0); pass < 2; pass++ {
		for i := 1 + pass; i <= n; i += 2 {
			if !s.Delete(th, key(i)) || s.Contains(th, key(i)) {
				t.Fatalf("delete %d failed", key(i))
			}
			ref.Delete(key(i))
		}
		intset.VerifyAgainstReference(t, th, s, ref, n)
	}
	for round := 0; round < 3; round++ {
		for k := uint64(1); k <= 20; k++ {
			if !s.Insert(th, k) {
				t.Fatalf("round %d after the drain: insert %d failed", round, k)
			}
		}
		for k := uint64(1); k <= 20; k++ {
			if !s.Delete(th, k) {
				t.Fatalf("round %d after the drain: delete %d failed", round, k)
			}
		}
	}
	intset.VerifyAgainstReference(t, th, s, ref, n)
}

// opResult is one operation's observable outcome.
type opResult struct {
	Op  int
	Key uint64
	OK  bool
}

// sequence drives one seeded single-thread operation sequence over 48 keys
// and returns every result and the final keys.
func sequence(mem core.Memory, s intset.Set, seed int64) (results []opResult, keys []uint64) {
	core.RunPhase(mem, 1, func(_ int, th core.Thread) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			k := intset.KeyMin + uint64(rng.Int63n(48))
			op := rng.Intn(3)
			var ok bool
			switch op {
			case 0:
				ok = s.Insert(th, k)
			case 1:
				ok = s.Delete(th, k)
			default:
				ok = s.Contains(th, k)
			}
			results = append(results, opResult{op, k, ok})
		}
		keys = s.(intset.Snapshotter).Keys(th)
	})
	return results, keys
}

// agreesWithReference feeds identical seeded sequences through the set on
// m and on the reference memory: caches, coherence and tag plumbing may
// change what an operation costs, never what it returns.
func agreesWithReference(t *testing.T, e sets.Entry, m Memory) {
	for seed := int64(1); seed <= 3; seed++ {
		rm, mm := VTags.New(1), m.New(1)
		rRes, rKeys := sequence(rm, e.New(rm), seed)
		mRes, mKeys := sequence(mm, e.New(mm), seed)
		for i := range rRes {
			if rRes[i] != mRes[i] {
				t.Fatalf("seed %d: op %d on %s %+v, on %s %+v", seed, i, VTags.Name, rRes[i], m.Name, mRes[i])
			}
		}
		if !reflect.DeepEqual(rKeys, mKeys) {
			t.Fatalf("seed %d: final keys differ:\n%s: %v\n%s: %v", seed, VTags.Name, rKeys, m.Name, mKeys)
		}
	}
}

func containsAllocatesNothing(t *testing.T, e sets.Entry, m Memory) {
	mem := m.New(1)
	s, th := e.New(mem), mem.Thread(0)
	for k := uint64(1); k <= 512; k += 2 {
		s.Insert(th, k)
	}
	key := uint64(0)
	if got := testing.AllocsPerRun(200, func() {
		key = key%512 + 1
		s.Contains(th, key)
	}); got != 0 {
		t.Fatalf("Contains allocates %.1f times per call, want 0", got)
	}
}

// linearizable records 4 threads on 16 keys under schedule fuzzing, with
// Mode-line flips on a set that has a Mode line, and checks each history.
// A policy >= 0 wires a pool of that policy over a checked domain: the
// guard must see no violation, and the run must retire (and under the
// immediate policy free) something. The run with no pool is the
// differential's control arm.
func linearizable(t *testing.T, e sets.Entry, m Memory, policy reclaim.Policy) {
	for seed := int64(1); seed <= 2; seed++ {
		var d *reclaim.Domain
		var p *reclaim.Pool
		newMem := func(threads int) core.Memory {
			mem := m.New(threads)
			if policy >= 0 {
				d = reclaim.NewDomainFor(mem)
				d.SetChecked(true)
				d.OnViolation(func(error) {}) // recorded, reported below
				mem.(reclaim.Attacher).SetReclaim(d)
			}
			return mem
		}
		build := func(mem core.Memory) intset.Set {
			s := e.New(mem)
			if policy >= 0 {
				p = e.Pool(s, d, policy)
			}
			return s
		}
		fuzz := schedfuzz.Default(seed)
		intset.CheckLinearizable(t, newMem, build, intset.LinearizeConfig{
			Threads:      4,
			OpsPerThread: intset.LinearizeOps(200),
			KeyRange:     16,
			Prefill:      8,
			Seed:         seed,
			Fuzz:         &fuzz,
			FlipMode:     true,
		})
		if p == nil {
			continue
		}
		if err := d.Violation(); err != nil {
			t.Fatalf("seed %d: reclamation guard violation: %v", seed, err)
		}
		st := p.Stats()
		if st.Retired == 0 {
			t.Fatalf("seed %d: vacuous run: nothing retired", seed)
		}
		if policy == reclaim.PolicyImmediate && st.Freed == 0 {
			t.Fatalf("seed %d: vacuous run: the immediate policy freed none of %d retires", seed, st.Retired)
		}
		if st.InUseLines < 0 || st.FreeLines < 0 {
			t.Fatalf("seed %d: inconsistent footprint accounting: %+v", seed, st)
		}
	}
}

// explore serializes 3 simulated cores running 4 operations each (2 under
// -short) and enumerates interleavings, including the directory-locking
// windows inside an operation, with targeted tag evictions, checking every
// execution's history and final set. On 8 keys it never splits a (4,8)
// tree's nodes; the (a,b)-tree keeps an explorer test at (2,4).
func explore(t *testing.T, e sets.Entry, m Memory, mode schedexplore.Mode) {
	ops := 4
	if testing.Short() {
		ops = 2
	}
	intset.CheckExploreLinearizable(t, func(n int) *machine.Machine { return m.New(n).(*machine.Machine) }, e.New, intset.ExploreConfig{
		Threads:      3,
		OpsPerThread: ops,
		KeyRange:     8,
		Prefill:      4,
		Seed:         22,
		Mode:         mode,
		Executions:   5,
		EvictPerMil:  100,
	})
}
