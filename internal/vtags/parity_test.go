package vtags_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/vtags"
)

// tagEventRecorder keeps the tag-relevant subset of the machine event
// vocabulary — the subset the vtags emulation promises to reproduce.
type tagEventRecorder struct {
	events []string
}

func (r *tagEventRecorder) Trace(e core.Event) {
	switch e.Kind {
	case core.EvTagAdd, core.EvTagRemove, core.EvTagEvicted,
		core.EvValidateOK, core.EvValidateFail,
		core.EvCommitVAS, core.EvCommitIAS,
		core.EvVASFail, core.EvIASFail:
		r.events = append(r.events, fmt.Sprintf("%s line=%d", e.Kind, e.Line))
	}
}

// tagThread is the op surface the parity workload drives: core.Thread plus
// the forced-eviction hook both backends expose.
type tagThread interface {
	core.Thread
	ForceTagEviction(l core.Line) bool
}

// runParityWorkload drives one thread through a deterministic script
// covering every tag-event-producing path: multi-line tagging, successful
// and failing validation, VAS/IAS commits and their failures (via forced
// eviction and overflow), tag removal, and re-tagging a line already in the
// set. It returns the TagCount observed after each re-tag step.
func runParityWorkload(th tagThread, base core.Addr, maxTags int) (counts []int) {
	lineAddr := func(i int) core.Addr { return base + core.Addr(i*core.LineSize) }

	// Happy path: tag two lines, validate, VAS into one, untag, IAS.
	th.AddTag(lineAddr(0), core.LineSize*2)
	th.Validate()
	th.VAS(lineAddr(0), 7)
	th.RemoveTag(lineAddr(1), core.LineSize)
	th.IAS(lineAddr(0), 8)
	th.ClearTagSet()

	// Forced eviction: validation and both commits fail until cleared.
	th.AddTag(lineAddr(2), core.LineSize)
	th.ForceTagEviction(core.Addr.Line(lineAddr(2)))
	th.Validate()
	th.VAS(lineAddr(2), 9)
	th.IAS(lineAddr(2), 10)
	th.ClearTagSet()

	// Overflow: exceeding MaxTags emits no event but poisons validation.
	for i := 0; i <= maxTags; i++ {
		th.AddTag(lineAddr(i), core.LineSize)
	}
	th.Validate()
	th.VAS(lineAddr(0), 11)
	th.ClearTagSet()

	// Recovery after clear.
	th.AddTag(lineAddr(3), core.LineSize)
	th.Validate()
	th.ClearTagSet()

	// Re-tagging a held line — the same word, a second word of the newest
	// line (a tree node's key, then its child pointer), an older line, and a
	// span that is half held — adds only the lines not yet in the set.
	th.AddTag(lineAddr(0), core.WordSize)
	th.AddTag(lineAddr(1), core.WordSize)
	counts = append(counts, th.TagCount())
	th.AddTag(lineAddr(1), core.WordSize)
	th.AddTag(lineAddr(1)+3*core.WordSize, core.WordSize)
	th.AddTag(lineAddr(0), core.LineSize)
	counts = append(counts, th.TagCount())
	th.AddTag(lineAddr(1), core.LineSize*2)
	counts = append(counts, th.TagCount())
	th.Validate()
	th.VAS(lineAddr(1), 12)
	th.Validate()
	th.ClearTagSet()
	return counts
}

// TestBackendTagEventParity pins tracing parity between the two backends:
// on a deterministic single-thread workload the cycle-cost simulator and
// the version emulation must emit identical sequences of tag events. Lines
// are pre-touched and few enough to rule out machine capacity evictions,
// which the emulation (having no caches) cannot reproduce.
func TestBackendTagEventParity(t *testing.T) {
	const maxTags = 4
	const numLines = maxTags + 2

	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 1 << 20
	cfg.MaxTags = maxTags
	cfg.SyncWindowCycles = 0
	mm := machine.New(cfg)
	mrec := &tagEventRecorder{}
	mm.SetTracer(mrec)
	mth := mm.Thread(0).(tagThread)
	mbase := mm.Alloc(core.WordsPerLine * numLines)
	for i := 0; i < numLines; i++ {
		mth.Store(mbase+core.Addr(i*core.LineSize), 1)
	}

	vm := vtags.New(1<<20, 1, vtags.WithMaxTags(maxTags))
	vrec := &tagEventRecorder{}
	vm.SetTracer(vrec)
	vth := vm.Thread(0).(tagThread)
	vbase := vm.Alloc(core.WordsPerLine * numLines)
	for i := 0; i < numLines; i++ {
		vth.Store(vbase+core.Addr(i*core.LineSize), 1)
	}

	mcounts := runParityWorkload(mth, mbase, maxTags)
	vcounts := runParityWorkload(vth, vbase, maxTags)
	if want := []int{2, 2, 3}; !slices.Equal(mcounts, want) || !slices.Equal(vcounts, want) {
		t.Errorf("TagCount across re-tags: machine %v, vtags %v, want %v", mcounts, vcounts, want)
	}

	// Compare kinds only alongside line offsets from each backend's base:
	// absolute lines differ between address spaces.
	norm := func(events []string, base core.Addr) []string {
		out := make([]string, len(events))
		baseLine := base.Line()
		for i, e := range events {
			var kind string
			var line uint64
			fmt.Sscanf(e, "%s line=%d", &kind, &line)
			rel := int64(line) - int64(baseLine)
			out[i] = fmt.Sprintf("%s +%d", kind, rel)
		}
		return out
	}
	me := norm(mrec.events, mbase)
	ve := norm(vrec.events, vbase)

	if len(me) == 0 {
		t.Fatal("machine backend emitted no tag events")
	}
	if len(me) != len(ve) {
		t.Fatalf("event counts differ: machine %d, vtags %d\nmachine: %v\nvtags:   %v",
			len(me), len(ve), me, ve)
	}
	for i := range me {
		if me[i] != ve[i] {
			t.Errorf("event %d differs: machine %q, vtags %q", i, me[i], ve[i])
		}
	}
}
