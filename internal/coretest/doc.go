// Package coretest is the backend contract, executable: what any
// core.Memory must do, what it may do, and what each optional capability
// named in internal/core (plus telemetry.Attacher and reclaim.Attacher)
// promises a harness. The package holds no library code, only tests:
// contract_test.go states the properties against a memory factory
// (Run), and memories_test.go runs them on every Memory in the tree —
// machine, vtags, and the schedule-fuzzing wrapper with no injections
// over each. A new Memory joins by adding one row to that table.
//
// The paper's tags are advisory: a validation may fail spuriously and
// never succeeds wrongly. The suite therefore has two kinds of case. A
// must case is an event after which validation has to fail (a successful
// remote write to a tagged line, another thread's write mark, an overflowed
// tag set, a forced eviction)
// or a small quiet script on which it has to succeed (nothing wrote, nothing
// was evicted, a handful of lines — a backend failing those makes no
// progress). A may case is an event after which either answer is legal
// (a remote CAS that failed): the suite logs what the memory did, checks
// only that a failure, once reported, stays reported until ClearTagSet,
// and never compares one backend with another.
//
// A capability's cases run only on a memory that asserts it; the table in
// memories_test.go pins which capabilities each memory offers, so a
// signature drift that silently drops one fails instead of skipping.
//
// Not in the contract, on purpose: machine.SetGate (the schedule
// explorer's hook into the simulator's scheduling points), Snapshot and
// CoreStats (the cost model's counters), machine.Config, vtags.TagStats.
// Those are what one backend is, not what a Memory does. Tag operations on
// a SpareThread handle are outside it too (see core.SpareThreader).
package coretest
