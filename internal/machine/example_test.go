package machine_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/machine"
)

// Example walks through the three MemTags primitives of the paper's
// Sections 3–4 on a two-core machine — Tag+Validate, VAS, and IAS's
// transient marking — and prints what the cost model charged for them.
func Example() {
	cfg := machine.DefaultConfig(2)
	cfg.MemBytes = 1 << 20
	m := machine.New(cfg)
	alice, bob := m.Thread(0), m.Thread(1)

	// Simulated memory is word-addressed; allocations are line-aligned.
	counter, flag := m.Alloc(1), m.Alloc(1)
	alice.Store(counter, 100)

	// 1. Tag + Validate: bob watches the counter without writing it. A
	// remote store evicts the tagged line, and bob detects it locally.
	bob.AddTag(counter, 8)
	fmt.Println("bob reads", bob.Load(counter), "validate:", bob.Validate())
	alice.Store(counter, 101)
	fmt.Println("after alice's store, validate:", bob.Validate())

	// 2. VAS: a store conditioned on the whole tag set. A failed VAS
	// writes nothing; on a quiet tag set it commits.
	fmt.Println("VAS on a stale tag set:", bob.VAS(counter, 0), "counter:", bob.Load(counter))
	bob.ClearTagSet()
	bob.AddTag(counter, 8)
	v := bob.Load(counter)
	fmt.Println("VAS on a quiet tag set:", bob.VAS(counter, v+1), "counter:", bob.Load(counter))
	bob.ClearTagSet()

	// 3. IAS: both tag the counter; bob's IAS of another word invalidates
	// alice's tag at commit (the transient marking that makes hand-over-hand
	// tagging correct) and keeps bob's own.
	alice.AddTag(counter, 8)
	bob.AddTag(counter, 8)
	fmt.Println("bob IAS:", bob.IAS(flag, 1), "alice validate:", alice.Validate(), "bob validate:", bob.Validate())
	alice.ClearTagSet()
	bob.ClearTagSet()

	s := m.Snapshot()
	fmt.Printf("%d loads, %d stores, %d tag adds, %d validations, %d invalidations\n",
		s.Loads, s.Stores, s.TagAdds, s.Validates, s.InvalidationsSent)
	fmt.Printf("cycles (slowest core) %d, energy %.0f units\n", s.MaxCycles, s.Energy)
	// Output:
	// bob reads 100 validate: true
	// after alice's store, validate: false
	// VAS on a stale tag set: false counter: 101
	// VAS on a quiet tag set: true counter: 102
	// bob IAS: true alice validate: false bob validate: true
	// 4 loads, 2 stores, 4 tag adds, 4 validations, 3 invalidations
	// cycles (slowest core) 262, energy 476 units
}

// ExampleMachine_Snapshot shows the event accounting every run produces.
func ExampleMachine_Snapshot() {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 1 << 20
	m := machine.New(cfg)
	th := m.Thread(0)
	a := m.Alloc(1)
	th.Store(a, 1) // DRAM fill
	th.Load(a)     // L1 hit

	s := m.Snapshot()
	fmt.Println("loads:", s.Loads, "stores:", s.Stores)
	fmt.Println("L1 hits:", s.L1Hits, "memory fills:", s.MemFills)
	// Output:
	// loads: 1 stores: 1
	// L1 hits: 1 memory fills: 1
}

// printer prints each event on its own line. It is not safe for
// concurrent use, so it suits a scenario driven from one goroutine.
type printer struct{}

func (printer) Trace(e core.Event) { fmt.Println(e) }

// ExampleMachine_SetTracer prints the coherence and tag events of a
// hand-over-hand-tagged list delete racing a traversal: core 1 searches
// while core 0 deletes 20, whose IAS transiently marks the removed node
// and invalidates core 1's tags on it.
func ExampleMachine_SetTracer() {
	cfg := machine.DefaultConfig(2)
	cfg.MemBytes = 4 << 20
	m := machine.New(cfg)
	s := list.NewHoH(m)
	t0, t1 := m.Thread(0), m.Thread(1)
	for k := uint64(10); k <= 40; k += 10 {
		s.Insert(t0, k)
	}

	m.SetTracer(printer{})
	fmt.Println("core 1: Contains(30)")
	s.Contains(t1, 30)
	fmt.Println("core 0: Delete(20)")
	s.Delete(t0, 20)
	fmt.Println("core 1: Contains(20)")
	found := s.Contains(t1, 20)
	m.SetTracer(nil)
	fmt.Println("found:", found)
	// Output:
	// core 1: Contains(30)
	// cycle     50 core  1 TagAdd       line 2
	// cycle     53 core  1 L1Hit        line 2
	// cycle    103 core  1 TagAdd       line 3
	// cycle    104 core  1 ValidateOK   line 0
	// cycle    107 core  1 L1Hit        line 3
	// cycle    110 core  1 L1Hit        line 3
	// cycle    160 core  1 TagAdd       line 4
	// cycle    161 core  1 ValidateOK   line 0
	// cycle    161 core  1 TagRemove    line 2
	// cycle    164 core  1 L1Hit        line 4
	// cycle    167 core  1 L1Hit        line 4
	// cycle    217 core  1 TagAdd       line 5
	// cycle    218 core  1 ValidateOK   line 0
	// cycle    218 core  1 TagRemove    line 3
	// cycle    221 core  1 L1Hit        line 5
	// cycle    222 core  1 ValidateOK   line 0
	// cycle    225 core  1 L1Hit        line 5
	// core 0: Delete(20)
	// cycle    724 core  0 TagAdd       line 2
	// cycle    727 core  0 L1Hit        line 2
	// cycle    727 core  0 TagAdd       line 3
	// cycle    728 core  0 ValidateOK   line 0
	// cycle    731 core  0 L1Hit        line 3
	// cycle    734 core  0 L1Hit        line 3
	// cycle    734 core  0 TagAdd       line 4
	// cycle    735 core  0 ValidateOK   line 0
	// cycle    735 core  0 TagRemove    line 2
	// cycle    738 core  0 L1Hit        line 4
	// cycle    739 core  0 ValidateOK   line 0
	// cycle    742 core  0 L1Hit        line 4
	// cycle    745 core  0 L1Hit        line 4
	// cycle    768 core  0 Invalidation line 4 -> core 1
	// cycle    790 core  0 Invalidation line 3 -> core 1
	// cycle    791 core  0 L1Hit        line 3
	// cycle    791 core  0 CommitIAS    line 3
	// core 1: Contains(20)
	// cycle    225 core  1 TagAdd       line 2
	// cycle    228 core  1 L1Hit        line 2
	// cycle    278 core  1 TagAdd       line 3
	// cycle    279 core  1 ValidateOK   line 0
	// cycle    282 core  1 L1Hit        line 3
	// cycle    285 core  1 L1Hit        line 3
	// cycle    285 core  1 TagAdd       line 5
	// cycle    286 core  1 ValidateOK   line 0
	// cycle    286 core  1 TagRemove    line 2
	// cycle    289 core  1 L1Hit        line 5
	// cycle    290 core  1 ValidateOK   line 0
	// cycle    293 core  1 L1Hit        line 5
	// found: false
}
