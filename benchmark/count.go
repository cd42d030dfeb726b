package main

import "repro/internal/core"

// opCounts is how many of each backend primitive ran.
type opCounts struct {
	loads, stores, cas  uint64
	addTags             uint64
	validates, vas, ias uint64
}

// countingMemory wraps a core.Memory so that every thread handle counts the
// loads, stores and tag primitives issued through it. It forwards everything
// (uncounted methods through the embedded handle) and adds nothing else:
// structures built on it behave exactly as on the memory it wraps.
type countingMemory struct {
	core.Memory
	threads []*countingThread
}

func newCountingMemory(mem core.Memory) *countingMemory {
	m := &countingMemory{Memory: mem, threads: make([]*countingThread, mem.NumThreads())}
	for i := range m.threads {
		m.threads[i] = &countingThread{Thread: mem.Thread(i)}
	}
	return m
}

func (m *countingMemory) Thread(id int) core.Thread { return m.threads[id] }

// countingThread is single-goroutine like the handle it wraps.
type countingThread struct {
	core.Thread
	n opCounts
}

func (t *countingThread) Load(a core.Addr) uint64 { t.n.loads++; return t.Thread.Load(a) }
func (t *countingThread) Store(a core.Addr, v uint64) {
	t.n.stores++
	t.Thread.Store(a, v)
}
func (t *countingThread) CAS(a core.Addr, old, new uint64) bool {
	t.n.cas++
	return t.Thread.CAS(a, old, new)
}
func (t *countingThread) AddTag(a core.Addr, size int) bool {
	t.n.addTags++
	return t.Thread.AddTag(a, size)
}
func (t *countingThread) Validate() bool { t.n.validates++; return t.Thread.Validate() }
func (t *countingThread) VAS(a core.Addr, v uint64) bool {
	t.n.vas++
	return t.Thread.VAS(a, v)
}
func (t *countingThread) IAS(a core.Addr, v uint64) bool {
	t.n.ias++
	return t.Thread.IAS(a, v)
}
