package coretest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/schedfuzz"
	"repro/internal/vtags"
)

func newMachine(threads, maxTags int) core.Memory {
	cfg := machine.DefaultConfig(threads)
	cfg.MemBytes = 1 << 20
	cfg.MaxTags = maxTags
	return machine.New(cfg)
}

func newVTags(threads, maxTags int) core.Memory {
	return vtags.New(1<<20, threads, vtags.WithMaxTags(maxTags))
}

// fuzzed wraps f's memories in the schedule fuzzer with a zero Config: no
// injection ever fires, so what is checked is the wrapper's forwarding.
func fuzzed(f Factory) Factory {
	return func(threads, maxTags int) core.Memory {
		return schedfuzz.Wrap(f(threads, maxTags), schedfuzz.Config{})
	}
}

// Every Memory in the tree, with the capabilities it offers. The list is
// pinned: a capability that silently stops being asserted (a changed
// method signature, say) would otherwise turn its cases into skips.
var memories = []struct {
	name   string
	newMem Factory
	offers string
}{
	{"machine", newMachine, "BeginEpoch SetActive OpClock SpareThread ForceTagEviction SetTracer SetTelemetry SetReclaim"},
	{"vtags", newVTags, "OpClock SpareThread ForceTagEviction SetTracer SetTelemetry SetReclaim"},
	{"fuzz-machine", fuzzed(newMachine), "BeginEpoch SetActive SpareThread"},
	{"fuzz-vtags", fuzzed(newVTags), "BeginEpoch SetActive SpareThread"},
}

func TestConformance(t *testing.T) {
	for _, m := range memories {
		t.Run(m.name, func(t *testing.T) {
			if got := Capabilities(m.newMem(1, 8)); got != m.offers {
				t.Errorf("capabilities offered: %q, want %q", got, m.offers)
			}
			Run(t, m.newMem)
		})
	}
}
