package core

import "fmt"

// Event tracing: the paper validates its claims by examining simulator
// traces ("Examination of the simulator traces confirms that this
// performance improvement comes because of reduced coherence messaging").
// Both backends speak this one vocabulary — the machine emits all of it,
// the vtags emulation the tag-relevant subset — so one exporter and one
// parity test consume either. A Tracer receives every coherence-relevant
// event; it costs nothing when unset.

// EventKind enumerates traced events.
type EventKind int

const (
	// EvL1Hit: an access served by the core's L1.
	EvL1Hit EventKind = iota
	// EvL2Hit: an access served by the core's L2.
	EvL2Hit
	// EvRemoteFill: a miss served by another core's cache.
	EvRemoteFill
	// EvMemFill: a miss served by simulated DRAM.
	EvMemFill
	// EvInvalidation: an invalidation message (core = sender; Target =
	// receiver).
	EvInvalidation
	// EvTagAdd: a line was tagged.
	EvTagAdd
	// EvTagRemove: a line was untagged.
	EvTagRemove
	// EvTagEvicted: a tagged line was invalidated or displaced (Target =
	// -1 for self-inflicted capacity evictions).
	EvTagEvicted
	// EvValidateOK / EvValidateFail: outcome of a validation.
	EvValidateOK
	// EvValidateFail is a failed validation.
	EvValidateFail
	// EvCommitVAS / EvCommitIAS: successful VAS/IAS commits.
	EvCommitVAS
	// EvCommitIAS is a successful IAS.
	EvCommitIAS
	// EvVASFail / EvIASFail: failed VAS/IAS commits (validation failed at
	// commit time: overflow or a recorded eviction).
	EvVASFail
	// EvIASFail is a failed IAS.
	EvIASFail
)

// String names the event kind.
func (k EventKind) String() string {
	names := [...]string{
		"L1Hit", "L2Hit", "RemoteFill", "MemFill", "Invalidation",
		"TagAdd", "TagRemove", "TagEvicted", "ValidateOK", "ValidateFail",
		"CommitVAS", "CommitIAS", "VASFail", "IASFail",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "Unknown"
}

// Event is one traced occurrence.
type Event struct {
	Kind   EventKind
	Core   int
	Target int // receiving core for invalidations/tag evictions, else -1
	Line   uint64
	Cycle  uint64 // issuing core's clock: simulated cycles (machine) or ticks (vtags)
}

// String renders one event in the fixed-width form used when a harness
// prints an interleaving ("cycle 1042 core 2 TagEvicted line 17 -> 0").
func (e Event) String() string {
	s := fmt.Sprintf("cycle %6d core %2d %-12s line %d", e.Cycle, e.Core, e.Kind, e.Line)
	if e.Target >= 0 {
		s += fmt.Sprintf(" -> core %d", e.Target)
	}
	return s
}

// Tracer receives events synchronously from a backend's threads. It must
// be safe for concurrent use (threads run on separate goroutines) and fast
// — on the machine it executes inside the coherence critical sections.
type Tracer interface {
	Trace(Event)
}
