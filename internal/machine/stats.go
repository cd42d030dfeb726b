package machine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// CoreStats accumulates per-core event counts, cycles, and energy. Plain
// fields are owned by the core's goroutine; atomic fields may be bumped by
// remote cores during coherence actions. Aggregate snapshots must only be
// taken while the workload is quiescent.
type CoreStats struct {
	Loads  uint64
	Stores uint64
	CASes  uint64

	L1Hits      uint64 // accesses served by L1
	L2Hits      uint64 // accesses served by local L2
	RemoteFills uint64 // misses served by a remote cache
	MemFills    uint64 // misses served by simulated DRAM

	InvalidationsSent uint64 // invalidation messages this core caused
	Writebacks        uint64 // dirty lines displaced from this core
	SocketHops        uint64 // cross-socket messages/transfers this core paid for (Sockets > 1)

	TagAdds           uint64
	TagRemoves        uint64
	TagOverflows      uint64 // AddTag rejections due to MaxTags
	Validates         uint64
	ValidateFails     uint64
	VASAttempts       uint64
	VASFails          uint64
	IASAttempts       uint64
	IASFails          uint64
	SpuriousEvictions uint64 // own capacity evictions of tagged lines

	Cycles uint64
	Energy float64

	// Remote-bumped counters.
	InvalidationsReceived atomic.Uint64
	RemoteTagEvictions    atomic.Uint64 // this core's tags killed by remote writes
}

// Stats is an aggregate snapshot over all cores.
type Stats struct {
	Ops uint64 // caller-defined completed operations (set by harness)

	Loads, Stores, CASes uint64

	L1Hits, L2Hits, RemoteFills, MemFills uint64

	InvalidationsSent, InvalidationsReceived uint64
	Writebacks                               uint64
	SocketHops                               uint64

	TagAdds, TagRemoves, TagOverflows     uint64
	Validates, ValidateFails              uint64
	VASAttempts, VASFails                 uint64
	IASAttempts, IASFails                 uint64
	SpuriousEvictions, RemoteTagEvictions uint64

	MaxCycles   uint64 // slowest core, defines simulated wall time
	TotalCycles uint64
	Energy      float64
}

// Accesses returns the total number of cache accesses, counted at the
// level that served them. This includes the accesses performed by tag
// operations (AddTag brings lines into L1), so it can exceed
// Loads+Stores+CASes.
func (s Stats) Accesses() uint64 { return s.L1Hits + s.L2Hits + s.RemoteFills + s.MemFills }

// Misses returns the number of accesses not served by L1.
func (s Stats) Misses() uint64 { return s.L2Hits + s.RemoteFills + s.MemFills }

// MissRate returns the fraction of accesses that missed in L1.
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses())
}

// Snapshot aggregates per-core stats. Only call while no core is issuing
// operations; under the memtagcheck build tag a non-quiescent call panics.
func (m *Machine) Snapshot() Stats {
	if core.Checked {
		if n := m.issuing.Load(); n != 0 {
			panic(fmt.Sprintf("machine: Snapshot while %d operation(s) in flight", n))
		}
	}
	var s Stats
	for _, t := range m.threads {
		cs := &t.stats
		s.Loads += cs.Loads
		s.Stores += cs.Stores
		s.CASes += cs.CASes
		s.L1Hits += cs.L1Hits
		s.L2Hits += cs.L2Hits
		s.RemoteFills += cs.RemoteFills
		s.MemFills += cs.MemFills
		s.InvalidationsSent += cs.InvalidationsSent
		s.InvalidationsReceived += cs.InvalidationsReceived.Load()
		s.Writebacks += cs.Writebacks
		s.SocketHops += cs.SocketHops
		s.TagAdds += cs.TagAdds
		s.TagRemoves += cs.TagRemoves
		s.TagOverflows += cs.TagOverflows
		s.Validates += cs.Validates
		s.ValidateFails += cs.ValidateFails
		s.VASAttempts += cs.VASAttempts
		s.VASFails += cs.VASFails
		s.IASAttempts += cs.IASAttempts
		s.IASFails += cs.IASFails
		s.SpuriousEvictions += cs.SpuriousEvictions
		s.RemoteTagEvictions += cs.RemoteTagEvictions.Load()
		if cs.Cycles > s.MaxCycles {
			s.MaxCycles = cs.Cycles
		}
		s.TotalCycles += cs.Cycles
		s.Energy += cs.Energy
	}
	return s
}

// CoreStatsOf returns a pointer to core id's stats for inspection in tests.
// The caller must not race with the core's goroutine.
func (m *Machine) CoreStatsOf(id int) *CoreStats { return &m.threads[id].stats }
