package machine

import "repro/internal/core"

// Protocol selects the coherence-protocol pricing model. MemTags semantics
// are identical under all three (the paper: "this mechanism can be
// extended to MOESI/MESIF-style cache coherent implementations"); what
// changes is who may serve a read miss and when dirty data is written
// back.
type Protocol int

const (
	// MESIF (the default, matching modern Intel directories): a clean
	// sharer forwards read misses cache-to-cache (F state); a dirty owner
	// forwards and writes back on downgrade.
	MESIF Protocol = iota
	// MESI (strict): clean lines are served from memory (no Forward
	// state); a dirty owner forwards and writes back on downgrade.
	MESI
	// MOESI (AMD-style): like MESIF, but a dirty owner downgrades to
	// Owned and keeps forwarding without writing back; the writeback is
	// deferred to the line's eviction.
	MOESI
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case MESI:
		return "MESI"
	case MOESI:
		return "MOESI"
	default:
		return "MESIF"
	}
}

// Config describes the simulated multicore machine. Defaults mirror the
// paper's Graphite setup: 1 GHz in-order tiles, private 32 KB L1 and 256 KB
// inclusive L2 per core, MESI coherence, 64 B lines.
type Config struct {
	// Cores is the number of simulated cores (1..core.MaxCores, past the
	// paper's 64-core ceiling). It also sizes the directory: each line's
	// sharer and tagger sets are ceil(Cores/64) words.
	Cores int
	// Sockets splits the cores contiguously across that many sockets for
	// the two-level (NUMA) cost model: cross-socket cache-to-cache
	// transfers and invalidation messages pay SocketHopCycles, and DRAM
	// fills homed on a remote socket (lines are interleaved across sockets)
	// pay MemHopCycles. 0 or 1 means a flat machine with no NUMA charges.
	// Sockets must divide Cores.
	Sockets int
	// MemBytes is the size of the simulated address space.
	MemBytes int

	// L1Bytes/L1Ways configure each core's private L1 model.
	L1Bytes int
	L1Ways  int
	// L2Bytes/L2Ways configure each core's private, inclusive L2 model.
	L2Bytes int
	L2Ways  int

	// Protocol selects the coherence pricing model (MESIF by default).
	Protocol Protocol

	// MaxTags is the system-wide bound on concurrently held tags per core.
	// Exceeding it makes tagging fail and all validations fail until
	// ClearTagSet (graceful overflow handling).
	MaxTags int

	// Latencies, in core cycles.
	L1HitCycles     uint64 // L1 load/store hit
	L2HitCycles     uint64 // L1 miss served by local L2
	RemoteCycles    uint64 // miss served by a remote cache (directory + transfer)
	MemCycles       uint64 // miss served by simulated DRAM
	InvBaseCycles   uint64 // latency of an invalidation round (acks collected in parallel)
	InvMsgCycles    uint64 // additional per-sharer fan-out cost charged to the writer
	TagOpCycles     uint64 // AddTag/RemoveTag bookkeeping beyond the access itself (the paper's proposal keeps tags in the load buffer, so the default is 0)
	ValidateCycles  uint64 // local tag-set check (no coherence traffic)
	CASExtraCycles  uint64 // extra cost of an atomic RMW over a plain store
	WritebackCycles uint64 // dirty-line writeback on downgrade (MESI/MESIF) or eviction
	SocketHopCycles uint64 // extra cost of a cross-socket cache transfer or invalidation message (Sockets > 1)
	MemHopCycles    uint64 // extra cost of a DRAM fill homed on a remote socket (Sockets > 1)
	// ComputeCycles models the non-memory instructions (compares, branches,
	// pointer arithmetic) surrounding each program load/store/CAS, as a
	// full-mode simulator like Graphite would execute. It is charged per
	// access and applies to every variant equally.
	ComputeCycles uint64

	// Energy, in arbitrary relative units (per event).
	EnergyL1        float64
	EnergyL2        float64
	EnergyRemote    float64
	EnergyMem       float64
	EnergyInvMsg    float64
	EnergyWriteback float64
	EnergySocketHop float64

	// SyncWindowCycles bounds the simulated-clock skew between active
	// cores (Graphite-style lax synchronization); 0 disables throttling.
	SyncWindowCycles uint64

	// ClockHz converts accumulated cycles into seconds for throughput.
	ClockHz float64
}

// DefaultConfig returns the paper's simulated configuration for the given
// core count.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:    cores,
		Sockets:  1,
		MemBytes: 64 << 20, // 64 MiB simulated space

		L1Bytes: 32 << 10,
		L1Ways:  8,
		L2Bytes: 256 << 10,
		L2Ways:  8,

		MaxTags: 32,

		L1HitCycles:     1,
		L2HitCycles:     8,
		RemoteCycles:    40,
		MemCycles:       100,
		InvBaseCycles:   20,
		InvMsgCycles:    2,
		TagOpCycles:     0,
		ValidateCycles:  1,
		CASExtraCycles:  4,
		WritebackCycles: 10,
		SocketHopCycles: 60,
		MemHopCycles:    80,
		ComputeCycles:   2,

		EnergyL1:        1,
		EnergyL2:        6,
		EnergyRemote:    35,
		EnergyMem:       120,
		EnergyInvMsg:    12,
		EnergyWriteback: 30,
		EnergySocketHop: 20,

		SyncWindowCycles: 2000,

		ClockHz: 1e9,
	}
}

// NUMAConfig returns the paper's configuration scaled out to a two-level
// topology: cores split contiguously across sockets, with cross-socket
// transfers and remote-homed DRAM fills priced by the hop fields.
func NUMAConfig(cores, sockets int) Config {
	c := DefaultConfig(cores)
	c.Sockets = sockets
	return c
}

func (c *Config) validate() error {
	switch {
	case c.Cores < 1 || c.Cores > core.MaxCores:
		return errConfig("Cores must be in [1, core.MaxCores]")
	case c.Sockets < 0 || c.Sockets > c.Cores:
		return errConfig("Sockets must be in [0, Cores]")
	case c.Sockets > 1 && c.Cores%c.Sockets != 0:
		return errConfig("Sockets must divide Cores")
	case c.MemBytes <= 0:
		return errConfig("MemBytes must be positive")
	case c.L1Bytes <= 0 || c.L1Ways <= 0:
		return errConfig("L1 geometry must be positive")
	case c.L2Bytes < c.L1Bytes || c.L2Ways <= 0:
		return errConfig("L2 must be at least as large as L1 (inclusive hierarchy)")
	case c.MaxTags <= 0:
		return errConfig("MaxTags must be positive")
	case c.ClockHz <= 0:
		return errConfig("ClockHz must be positive")
	}
	return nil
}

type errConfig string

func (e errConfig) Error() string { return "machine: invalid config: " + string(e) }
