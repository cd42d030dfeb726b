package coretest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/reclaim"
	"repro/internal/telemetry"
)

// Factory builds a fresh memory with the given thread count and Max_Tags.
type Factory func(threads, maxTags int) core.Memory

// has reports whether v asserts capability T.
func has[T any](v any) bool { _, ok := v.(T); return ok }

// Capabilities names, in a fixed order, the optional capabilities mem (and
// its thread 0) asserts.
func Capabilities(mem core.Memory) string {
	th := mem.Thread(0)
	var have []string
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"BeginEpoch", has[core.EpochAligner](mem)},
		{"SetActive", has[core.LaxClocked](th)},
		{"OpClock", has[core.OpClocked](th)},
		{"SpareThread", has[core.SpareThreader](mem)},
		{"ForceTagEviction", has[core.TagEvictor](th)},
		{"SetTracer", has[core.Traceable](mem)},
		{"SetTelemetry", has[telemetry.Attacher](mem)},
		{"SetReclaim", has[reclaim.Attacher](mem)},
	} {
		if c.ok {
			have = append(have, c.name)
		}
	}
	return strings.Join(have, " ")
}

// Run checks newMem's memories against the contract, one subtest per case.
func Run(t *testing.T, newMem Factory) {
	t.Logf("capabilities offered: %s", Capabilities(newMem(1, 8)))
	for _, c := range contract {
		t.Run(c.name, func(t *testing.T) { c.run(t, newMem) })
	}
}

var contract = []struct {
	name string
	run  func(t *testing.T, newMem Factory)
}{
	{"must/load-store-cas", loadStoreCAS},
	{"must/remote-write-fails-validation-until-clear", remoteWriteFailsValidation},
	{"must/eviction-latch-survives-removetag", latchSurvivesRemoveTag},
	{"must/quiet-tags-validate", quietTagsValidate},
	{"must/own-writes-keep-own-tags", ownWritesKeepOwnTags},
	{"must/own-write-keeps-remote-eviction", ownWriteKeepsRemoteEviction},
	{"must/overflow-poisons-until-clear", overflowPoisons},
	{"must/span-tags-each-line-once", spanTagsEachLineOnce},
	{"must/ias-evicts-every-tagged-line-vas-only-target", iasEvictsEveryTaggedLine},
	{"must/empty-tag-set-validates-and-commits", emptyTagSetCommits},
	{"must/commits-are-atomic", commitsAreAtomic},
	{"must/random-ops-agree-with-a-word-map", randomOpsAgreeWithWordMap},
	{"must/marked-line-fails-remote-tags", markedLineFailsRemoteTags},
	{"must/hot-path-allocates-nothing", func(t *testing.T, newMem Factory) { allocBudget(t, newMem(2, 8)) }},
	{"may/validate-after-failed-remote-cas", mayFailAfterFailedCAS},
	{"cap/ForceTagEviction", forcedEviction},
	{"cap/OpClock", opClock},
	{"cap/SpareThread", spareThread},
	{"cap/BeginEpoch-SetActive", epochAndLaxClock},
	{"cap/SetTracer", tracerRoundTrip},
	{"cap/SetTelemetry", telemetryRoundTrip},
	{"cap/SetReclaim", reclaimRoundTrip},
	{"cap/SetReclaim-refused-attaches-nothing", reclaimRefusedAttachesNothing},
}

// want fails the case unless got == want.
func want[T comparable](t *testing.T, what string, got, want T) {
	t.Helper()
	if got != want {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// writers are the four ways a thread with an empty tag set writes a word;
// each must evict every remote tag on the word's line when it succeeds.
var writers = []struct {
	name  string
	write func(th core.Thread, a core.Addr, old, v uint64) bool
}{
	{"Store", func(th core.Thread, a core.Addr, _, v uint64) bool { th.Store(a, v); return true }},
	{"CAS", func(th core.Thread, a core.Addr, old, v uint64) bool { return th.CAS(a, old, v) }},
	{"VAS", func(th core.Thread, a core.Addr, _, v uint64) bool { return th.VAS(a, v) }},
	{"IAS", func(th core.Thread, a core.Addr, _, v uint64) bool { return th.IAS(a, v) }},
}

func loadStoreCAS(t *testing.T, newMem Factory) {
	mem := newMem(2, 8)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	want(t, "NumThreads", mem.NumThreads(), 2)
	want(t, "MaxTags", mem.MaxTags(), 8)
	want(t, "Thread(1).ID", t1.ID(), 1)
	a, b := mem.Alloc(2), t1.Alloc(1)
	if a.IsNil() || b.IsNil() || a.Offset() != 0 || b.Offset() != 0 || a.Line() == b.Line() {
		t.Fatalf("Alloc gave %#x and %#x: want distinct non-nil line-aligned objects", uint64(a), uint64(b))
	}
	want(t, "fresh word", t0.Load(a), 0)
	t0.Store(a, 42)
	t0.Store(a.Plus(1), 43)
	want(t, "own load", t0.Load(a), 42)
	want(t, "remote load", t1.Load(a), 42)
	want(t, "remote load of the second word", t1.Load(a.Plus(1)), 43)
	want(t, "CAS with the wrong expected value", t1.CAS(a, 41, 9), false)
	want(t, "word after a failed CAS", t0.Load(a), 42)
	want(t, "CAS with the right expected value", t1.CAS(a, 42, 9), true)
	want(t, "word after a successful remote CAS", t0.Load(a), 9)
}

func remoteWriteFailsValidation(t *testing.T, newMem Factory) {
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			mem := newMem(2, 8)
			t0, t1 := mem.Thread(0), mem.Thread(1)
			a, target := mem.Alloc(1), mem.Alloc(1)
			t0.Store(a, 1)
			want(t, "AddTag", t1.AddTag(a, core.WordSize), true)
			want(t, "Validate before the write", t1.Validate(), true)
			want(t, "remote "+w.name, w.write(t0, a, 1, 2), true)
			want(t, "Validate after the write", t1.Validate(), false)
			want(t, "Validate again", t1.Validate(), false)
			want(t, "VAS after the write", t1.VAS(target, 7), false)
			want(t, "IAS after the write", t1.IAS(target, 7), false)
			want(t, "target after failed commits", t1.Load(target), 0)
			t1.ClearTagSet()
			want(t, "TagCount after ClearTagSet", t1.TagCount(), 0)
			want(t, "re-tag", t1.AddTag(a, core.WordSize), true)
			want(t, "Validate after ClearTagSet and re-tag", t1.Validate(), true)
			want(t, "VAS after ClearTagSet and re-tag", t1.VAS(target, 8), true)
			want(t, "the written word", t1.Load(a), 2)
			want(t, "the committed word", t0.Load(target), 8)
			// A commit must fail on the eviction alone, with no Validate
			// between the write and the commit.
			want(t, "second remote "+w.name, w.write(t0, a, 2, 3), true)
			want(t, "VAS right after the write", t1.VAS(target, 9), false)
			want(t, "the committed word after the failed VAS", t0.Load(target), 8)
		})
	}
}

func latchSurvivesRemoveTag(t *testing.T, newMem Factory) {
	mem := newMem(2, 8)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	a := mem.Alloc(1)
	t1.AddTag(a, core.WordSize)
	t0.Store(a, 1) // evicts t1's tag before t1 has validated once
	t1.RemoveTag(a, core.WordSize)
	want(t, "TagCount after RemoveTag", t1.TagCount(), 0)
	want(t, "Validate after RemoveTag of an evicted tag", t1.Validate(), false)
	want(t, "VAS after RemoveTag of an evicted tag", t1.VAS(a, 2), false)
	t1.ClearTagSet()
	want(t, "Validate after ClearTagSet", t1.Validate(), true)
}

func quietTagsValidate(t *testing.T, newMem Factory) {
	mem := newMem(2, 8)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	a, b := mem.Alloc(1), mem.Alloc(1)
	t0.Store(a, 1)
	t1.AddTag(a, core.WordSize)
	t1.AddTag(b, core.WordSize)
	want(t, "TagCount", t1.TagCount(), 2)
	for i := 0; i < 3; i++ {
		want(t, "Validate of fresh tags (the tag set is retained)", t1.Validate(), true)
	}
	want(t, "remote load of a tagged line", t0.Load(a), 1)
	want(t, "Validate after a remote load", t1.Validate(), true)
	// RemoveTag stops tracking: a write to the released line is no conflict.
	t1.RemoveTag(a, core.WordSize)
	t1.RemoveTag(a, core.WordSize) // untagged lines are ignored
	want(t, "TagCount after RemoveTag", t1.TagCount(), 1)
	t0.Store(a, 2)
	want(t, "Validate after a write to a released line", t1.Validate(), true)
	t0.Store(b, 2)
	want(t, "Validate after a write to the line still tagged", t1.Validate(), false)
}

// ownWriteKeepsRemoteEviction: a thread's own write to a line whose tag a
// remote write already evicted must not revive the tag. Only the plain
// writers apply; an own VAS or IAS after the eviction fails on its own.
func ownWriteKeepsRemoteEviction(t *testing.T, newMem Factory) {
	for _, w := range writers[:2] {
		t.Run(w.name, func(t *testing.T) {
			mem := newMem(2, 8)
			t0, t1 := mem.Thread(0), mem.Thread(1)
			a, target := mem.Alloc(1), mem.Alloc(1)
			t0.Store(a, 1)
			t1.AddTag(a, core.WordSize)
			t0.Store(a, 2) // evicts t1's tag; t1 does not validate before its own write
			want(t, "own "+w.name+" after the eviction", w.write(t1, a, 2, 3), true)
			want(t, "Validate after the own write", t1.Validate(), false)
			want(t, "VAS after the own write", t1.VAS(target, 7), false)
			want(t, "target after the failed VAS", t0.Load(target), 0)
			want(t, "the word", t0.Load(a), 3)
		})
	}
}

func ownWritesKeepOwnTags(t *testing.T, newMem Factory) {
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			mem := newMem(2, 8)
			t0, t1 := mem.Thread(0), mem.Thread(1)
			a, c := mem.Alloc(1), mem.Alloc(1)
			t0.Store(a, 1)
			t1.Load(a) // a remote copy for the write to invalidate
			t0.AddTag(c, core.WordSize)
			t0.RemoveTag(c, core.WordSize) // released: no longer a conflict
			t0.AddTag(a, core.WordSize)
			want(t, "own "+w.name+" to the tagged line", w.write(t0, a, 1, 2), true)
			want(t, "Validate after the own write", t0.Validate(), true)
			want(t, "TagCount after the own write", t0.TagCount(), 1)
			want(t, "the word, read by the writer", t0.Load(a), 2)
			want(t, "the word, read remotely", t1.Load(a), 2)
			// A remote write to the released line may make the backend look
			// at the tags again; the own write must still hold up then.
			t1.Store(c, 3)
			want(t, "Validate after a remote write to a released line", t0.Validate(), true)
		})
	}
}

func overflowPoisons(t *testing.T, newMem Factory) {
	const maxTags = 4
	mem := newMem(1, maxTags)
	th := mem.Thread(0)
	var lines [maxTags + 1]core.Addr
	for i := range lines {
		lines[i] = mem.Alloc(1)
	}
	for i := 0; i < maxTags; i++ {
		want(t, "AddTag within Max_Tags", th.AddTag(lines[i], core.WordSize), true)
	}
	want(t, "AddTag of a line already tagged, set full", th.AddTag(lines[0], core.WordSize), true)
	want(t, "Validate with a full tag set", th.Validate(), true)
	want(t, "AddTag past Max_Tags", th.AddTag(lines[maxTags], core.WordSize), false)
	want(t, "TagCount after overflow", th.TagCount(), maxTags)
	want(t, "Validate after overflow", th.Validate(), false)
	want(t, "VAS after overflow", th.VAS(lines[0], 1), false)
	want(t, "IAS after overflow", th.IAS(lines[0], 1), false)
	want(t, "word after failed commits", th.Load(lines[0]), 0)
	th.RemoveTag(lines[0], core.WordSize)
	want(t, "Validate after overflow and RemoveTag", th.Validate(), false)
	th.ClearTagSet()
	want(t, "AddTag after ClearTagSet", th.AddTag(lines[maxTags], core.WordSize), true)
	want(t, "Validate after ClearTagSet", th.Validate(), true)
}

func spanTagsEachLineOnce(t *testing.T, newMem Factory) {
	mem := newMem(2, 8)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	obj := mem.Alloc(3 * core.WordsPerLine)
	want(t, "AddTag of a three-line object", t1.AddTag(obj, 3*core.LineSize), true)
	want(t, "TagCount", t1.TagCount(), 3)
	// A second span inside the first, straddling a line boundary.
	want(t, "AddTag of a covered span", t1.AddTag(obj.Plus(core.WordsPerLine-1), 2*core.WordSize), true)
	want(t, "TagCount after tagging covered lines again", t1.TagCount(), 3)
	want(t, "AddTag of an empty span", t1.AddTag(obj, 0), true)
	want(t, "TagCount after an empty span", t1.TagCount(), 3)
	t1.RemoveTag(obj, core.WordSize)
	want(t, "TagCount after RemoveTag of the first line", t1.TagCount(), 2)
	t0.Store(obj, 5)
	want(t, "Validate after a write to the released first line", t1.Validate(), true)
	t0.Store(obj.Plus(core.WordsPerLine+1), 5)
	want(t, "Validate after a write to the middle line", t1.Validate(), false)
	t1.RemoveTag(obj, 3*core.LineSize)
	want(t, "TagCount after RemoveTag of the whole object", t1.TagCount(), 0)
}

func iasEvictsEveryTaggedLine(t *testing.T, newMem Factory) {
	mem := newMem(3, 8)
	t0, t1, t2 := mem.Thread(0), mem.Thread(1), mem.Thread(2)
	n1, n2, target := mem.Alloc(1), mem.Alloc(1), mem.Alloc(1)
	t0.AddTag(n1, core.WordSize)
	t0.AddTag(n2, core.WordSize)
	t1.AddTag(n1, core.WordSize)
	t2.AddTag(n2, core.WordSize)
	want(t, "VAS", t0.VAS(target, 5), true)
	want(t, "a remote tag on the VAS issuer's first tagged line", t1.Validate(), true)
	want(t, "a remote tag on the VAS issuer's second tagged line", t2.Validate(), true)
	want(t, "IAS", t0.IAS(target, 6), true)
	want(t, "a remote tag on the IAS issuer's first tagged line", t1.Validate(), false)
	want(t, "a remote tag on the IAS issuer's second tagged line", t2.Validate(), false)
	want(t, "the IAS issuer's own tags", t0.Validate(), true)
	want(t, "the IAS issuer's TagCount", t0.TagCount(), 2)
	want(t, "the committed word", t1.Load(target), 6)
}

func emptyTagSetCommits(t *testing.T, newMem Factory) {
	mem := newMem(1, 8)
	th := mem.Thread(0)
	a := mem.Alloc(1)
	want(t, "TagCount", th.TagCount(), 0)
	want(t, "Validate", th.Validate(), true)
	want(t, "VAS", th.VAS(a, 1), true)
	want(t, "IAS", th.IAS(a, 2), true)
	want(t, "the committed word", th.Load(a), 2)
	th.ClearTagSet()
	want(t, "Validate after ClearTagSet", th.Validate(), true)
}

// commitsAreAtomic increments one counter from every thread with each of
// the three read-modify-write idioms; the total is exact only if CAS, VAS
// and IAS each linearize against concurrent writes to the line. The IAS
// loop tags a second line too, so its commits hold two lines at once.
func commitsAreAtomic(t *testing.T, newMem Factory) {
	const workers, each = 8, 300
	idioms := []struct {
		name string
		inc  func(th core.Thread, ctr, aux core.Addr) bool
	}{
		{"CAS", func(th core.Thread, ctr, _ core.Addr) bool {
			v := th.Load(ctr)
			return th.CAS(ctr, v, v+1)
		}},
		{"VAS", func(th core.Thread, ctr, _ core.Addr) bool {
			th.ClearTagSet()
			th.AddTag(ctr, core.WordSize)
			return th.VAS(ctr, th.Load(ctr)+1)
		}},
		{"IAS", func(th core.Thread, ctr, aux core.Addr) bool {
			th.ClearTagSet()
			th.AddTag(ctr, core.WordSize)
			th.AddTag(aux, core.WordSize)
			return th.IAS(ctr, th.Load(ctr)+1)
		}},
	}
	for _, id := range idioms {
		t.Run(id.name, func(t *testing.T) {
			mem := newMem(workers, 8)
			ctr, aux := mem.Alloc(1), mem.Alloc(1)
			core.RunPhase(mem, workers, func(_ int, th core.Thread) {
				for i := 0; i < each; i++ {
					for !id.inc(th, ctr, aux) {
					}
				}
				th.ClearTagSet()
			})
			want(t, "counter", mem.Thread(0).Load(ctr), workers*each)
		})
	}
}

// tagModel is what a thread's tag set must do, for
// randomOpsAgreeWithWordMap: the lines it holds, whether its validation
// must fail (doomed) and whether it may (a remote CAS that failed on a held
// line).
type tagModel struct {
	lines         []core.Line
	doomed, maybe bool
}

// hit is a write by another thread to line l: sure for a write that took
// effect, not sure for a CAS that failed.
func (m *tagModel) hit(l core.Line, sure bool) {
	if slices.Contains(m.lines, l) {
		m.doomed = m.doomed || sure
		m.maybe = m.maybe || !sure
	}
}

// validated checks a Validate, VAS or IAS outcome against the model and
// folds it in: a failure stays until ClearTagSet, and a success proves the
// failed CAS evicted nothing.
func (m *tagModel) validated(t *testing.T, what string, ok bool) {
	t.Helper()
	switch {
	case ok && m.doomed:
		t.Fatalf("%s succeeded after a remote write to a held line or an overflow", what)
	case !ok && !m.doomed && !m.maybe:
		t.Fatalf("%s failed, but nothing wrote a held line and the set never overflowed", what)
	}
	m.doomed, m.maybe = !ok, false
}

// randomOpsAgreeWithWordMap drives two threads, from one goroutine, through
// seeded random sequences of every primitive on a dozen two-word lines, and
// checks each step against a plain word map and one tagModel per thread:
// loaded words, CAS outcomes, TagCount and the final image exactly, and
// every validation outcome as far as the contract decides it.
func randomOpsAgreeWithWordMap(t *testing.T, newMem Factory) {
	const lines, maxTags, seeds, steps = 12, 4, 20, 400
	for seed := int64(0); seed < seeds; seed++ {
		mem := newMem(2, maxTags)
		ths := [2]core.Thread{mem.Thread(0), mem.Thread(1)}
		base := mem.Alloc(lines * core.WordsPerLine)
		addr := func(i int) core.Addr { return base.Plus(i/2*core.WordsPerLine + i%2) }
		words := map[core.Addr]uint64{}
		var models [2]tagModel
		// wrote applies a write by thread w to the other thread's model,
		// on the target line and, for an IAS, on every line w holds.
		wrote := func(w int, a core.Addr, sure, ias bool) {
			models[1-w].hit(a.Line(), sure)
			if ias {
				for _, l := range models[w].lines {
					models[1-w].hit(l, true)
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < steps; step++ {
			w := rng.Intn(2)
			th, m := ths[w], &models[w]
			i := rng.Intn(2 * lines)
			a, v := addr(i), uint64(rng.Intn(4))
			at := func(op string) string {
				return fmt.Sprintf("seed %d step %d: thread %d %s of word %d", seed, step, w, op, i)
			}
			switch rng.Intn(10) {
			case 0:
				want(t, at("Load"), th.Load(a), words[a])
			case 1:
				th.Store(a, v)
				words[a] = v
				wrote(w, a, true, false)
			case 2:
				old := words[a]
				if rng.Intn(2) == 0 {
					old = uint64(rng.Intn(4))
				}
				ok := th.CAS(a, old, v)
				want(t, at("CAS"), ok, old == words[a])
				if ok {
					words[a] = v
				}
				wrote(w, a, ok, false)
			case 3, 4:
				size := core.WordSize
				if i < 2*lines-2 && rng.Intn(4) == 0 {
					size = 2 * core.LineSize
				}
				fits := true
				first, last, _ := core.LineSpan(a, size)
				for l := first; fits && l <= last; l++ {
					switch {
					case slices.Contains(m.lines, l):
					case len(m.lines) == maxTags:
						fits, m.doomed = false, true
					default:
						m.lines = append(m.lines, l)
					}
				}
				want(t, at("AddTag"), th.AddTag(a, size), fits)
			case 5:
				th.RemoveTag(a, core.WordSize)
				if j := slices.Index(m.lines, a.Line()); j >= 0 {
					m.lines = slices.Delete(m.lines, j, j+1)
				}
			case 6:
				m.validated(t, at("Validate"), th.Validate())
			case 7, 8:
				ias, op, commit := false, "VAS", th.VAS
				if rng.Intn(2) == 0 {
					ias, op, commit = true, "IAS", th.IAS
				}
				ok := commit(a, v)
				m.validated(t, at(op), ok)
				if ok {
					words[a] = v
					wrote(w, a, true, ias)
				}
			default:
				th.ClearTagSet()
				*m = tagModel{}
			}
			want(t, at("TagCount after"), th.TagCount(), len(m.lines))
		}
		for i := 0; i < 2*lines; i++ {
			want(t, fmt.Sprintf("seed %d: final word %d", seed, i), ths[i%2].Load(addr(i)), words[addr(i)])
		}
		ths[0].ClearTagSet()
		ths[1].ClearTagSet()
	}
}

// markedLineFailsRemoteTags: a write mark counts as a write for other
// threads' tags on the line — one taken before the mark fails, one taken
// under it fails until ClearTagSet — and as nothing for the marker's own
// tags and for the data. A tag taken after UnmarkWrites is good. Together
// these hide a marked write-back from validating readers until it is done.
func markedLineFailsRemoteTags(t *testing.T, newMem Factory) {
	mem := newMem(3, 8)
	t0, t1, t2 := mem.Thread(0), mem.Thread(1), mem.Thread(2)
	a, b, target := mem.Alloc(1), mem.Alloc(1), mem.Alloc(1)
	t0.Store(a, 1)
	t0.Store(b, 2)
	t2.AddTag(a, core.WordSize)
	t0.AddTag(b, core.WordSize)
	t0.MarkWrite(a, core.WordSize)
	t0.MarkWrite(b, core.WordSize)
	t0.MarkWrite(a, core.WordSize) // a line already marked
	want(t, "a marked word, read remotely", t1.Load(a), 1)
	want(t, "the other marked word, read remotely", t1.Load(b), 2)
	want(t, "a remote tag taken before the mark", t2.Validate(), false)
	want(t, "AddTag of a line another thread marks", t1.AddTag(a, core.WordSize), true)
	want(t, "Validate of a tag taken on a marked line", t1.Validate(), false)
	want(t, "VAS after tagging a marked line", t1.VAS(target, 7), false)
	want(t, "IAS after tagging a marked line", t1.IAS(target, 7), false)
	t1.RemoveTag(a, core.WordSize)
	want(t, "Validate after RemoveTag of that tag", t1.Validate(), false)
	want(t, "the marker's AddTag of its own marked line", t0.AddTag(a, core.WordSize), true)
	want(t, "the marker's tags, one taken before its mark and one under it", t0.Validate(), true)
	t0.Store(a, 3)
	t0.Store(b, 4)
	t0.UnmarkWrites()
	t0.UnmarkWrites() // nothing left to drop
	want(t, "the marker's tags after its marked writes", t0.Validate(), true)
	want(t, "Validate after UnmarkWrites, before ClearTagSet", t1.Validate(), false)
	t1.ClearTagSet()
	want(t, "AddTag after UnmarkWrites", t1.AddTag(a, core.WordSize), true)
	want(t, "Validate of a tag taken after UnmarkWrites", t1.Validate(), true)
	want(t, "VAS with a tag taken after UnmarkWrites", t1.VAS(target, 8), true)
	want(t, "the first written word", t1.Load(a), 3)
	want(t, "the second written word", t1.Load(b), 4)
	want(t, "the committed word", t0.Load(target), 8)
}

// allocBudget pins the hot path at 0 allocs/op on mem as it stands (hooks
// attached or not): harnesses run hundreds of millions of these per figure.
func allocBudget(t *testing.T, mem core.Memory) {
	t.Helper()
	for _, f := range hotPathAllocs(mem, mem.Thread(0)) {
		t.Error(f)
	}
}

// hotPathAllocs runs allocBudget's scripts on th, one of mem's threads, and
// returns what broke the budget. It calls no testing.T method, so it may
// run on a phase worker.
func hotPathAllocs(mem core.Memory, th core.Thread) (failures []string) {
	broke := "" // set inside a measured script, which must not allocate
	a := mem.Alloc(4 * core.WordsPerLine)
	for i := 0; i < 4; i++ { // warm: chunks installed, lines resident
		th.Store(a+core.Addr(i*core.LineSize), uint64(i))
	}
	scripts := []struct {
		name string
		run  func()
	}{
		{"Load", func() { th.Load(a) }},
		{"Store", func() { th.Store(a, 42) }},
		{"CAS", func() { v := th.Load(a); th.CAS(a, v, v+1) }},
		{"AddTag+Validate+ClearTagSet", func() {
			if !th.AddTag(a, 2*core.LineSize) || !th.Validate() {
				broke = "uncontended AddTag+Validate failed"
			}
			th.ClearTagSet()
		}},
		{"AddTag+RemoveTag", func() {
			th.AddTag(a, core.LineSize)
			th.RemoveTag(a, core.LineSize)
			th.ClearTagSet()
		}},
		{"VAS", func() {
			th.AddTag(a, core.LineSize)
			if !th.VAS(a, th.Load(a)+1) {
				broke = "uncontended VAS failed"
			}
			th.ClearTagSet()
		}},
		{"IAS", func() {
			th.AddTag(a, core.LineSize)
			if !th.IAS(a, th.Load(a)+1) {
				broke = "uncontended IAS failed"
			}
			th.ClearTagSet()
		}},
		{"MarkWrite+Store+UnmarkWrites", func() {
			th.MarkWrite(a, 2*core.LineSize)
			th.Store(a, 42)
			th.UnmarkWrites()
		}},
	}
	for _, s := range scripts {
		if n := testing.AllocsPerRun(100, s.run); n != 0 {
			failures = append(failures, fmt.Sprintf("%s: %v allocs/op, want 0", s.name, n))
		}
		if broke != "" {
			failures = append(failures, s.name+": "+broke)
			broke = ""
		}
	}
	return failures
}

// mayFailAfterFailedCAS: the machine takes the line exclusive before it
// compares, so a CAS that fails still evicts remote tags; vtags bumps no
// version. Both are legal. What is not legal is a failure that goes away.
func mayFailAfterFailedCAS(t *testing.T, newMem Factory) {
	mem := newMem(2, 8)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	a, target := mem.Alloc(1), mem.Alloc(1)
	t0.Store(a, 1)
	t1.AddTag(a, core.WordSize)
	want(t, "CAS with the wrong expected value", t0.CAS(a, 7, 8), false)
	ok := t1.Validate()
	t.Logf("Validate after a remote CAS that failed: %v", ok)
	if !ok {
		want(t, "Validate, having failed once", t1.Validate(), false)
		want(t, "VAS, Validate having failed", t1.VAS(target, 1), false)
	}
	t1.ClearTagSet()
	t1.AddTag(a, core.WordSize)
	want(t, "Validate after ClearTagSet and re-tag", t1.Validate(), true)
	want(t, "the word", t1.Load(a), 1)
}

// forcedEviction is the targeted-eviction contract mid hand-over-hand:
// only a held tag can be evicted, and the eviction is a latch.
func forcedEviction(t *testing.T, newMem Factory) {
	mem := newMem(1, 8)
	th := mem.Thread(0)
	ev, ok := th.(core.TagEvictor)
	if !ok {
		t.Skip("threads are no core.TagEvictor")
	}
	a, b, c := mem.Alloc(1), mem.Alloc(1), mem.Alloc(1)
	th.AddTag(a, core.WordSize)
	th.AddTag(b, core.WordSize)
	held := map[core.Line]bool{}
	for i := 0; i < th.TagCount(); i++ {
		held[ev.TaggedLine(i)] = true
	}
	if len(held) != 2 || !held[a.Line()] || !held[b.Line()] {
		t.Fatalf("TaggedLine enumerated %v, want lines %d and %d", held, a.Line(), b.Line())
	}
	th.RemoveTag(a, core.WordSize) // the window slides past a
	want(t, "ForceTagEviction of a never-tagged line", ev.ForceTagEviction(c.Line()), false)
	want(t, "ForceTagEviction of a line the window slid past", ev.ForceTagEviction(a.Line()), false)
	want(t, "Validate after no-op evictions", th.Validate(), true)
	want(t, "ForceTagEviction of a held tag", ev.ForceTagEviction(b.Line()), true)
	want(t, "Validate after the eviction", th.Validate(), false)
	want(t, "VAS after the eviction", th.VAS(c, 1), false)
	th.RemoveTag(b, core.WordSize)
	want(t, "Validate after the eviction and RemoveTag", th.Validate(), false)
	th.ClearTagSet()
	th.AddTag(b, core.WordSize)
	want(t, "Validate after ClearTagSet", th.Validate(), true)
}

func opClock(t *testing.T, newMem Factory) {
	mem := newMem(2, 2)
	t0, th := mem.Thread(0), mem.Thread(1)
	oc, ok := th.(core.OpClocked)
	if !ok {
		t.Skip("threads are no core.OpClocked")
	}
	a, b, c := mem.Alloc(1), mem.Alloc(1), mem.Alloc(1)
	step := func(what string, op func(), wantFails uint64) {
		t.Helper()
		c0, f0 := oc.OpClock()
		op()
		c1, f1 := oc.OpClock()
		if c1 < c0 {
			t.Fatalf("%s: clock went back, %d -> %d", what, c0, c1)
		}
		want(t, what+": failures counted", f1-f0, wantFails)
	}
	c0, _ := oc.OpClock()
	step("Load+Store", func() { th.Store(a, th.Load(a)+1) }, 0)
	if c1, _ := oc.OpClock(); c1 <= c0 {
		t.Fatalf("clock did not advance across a Load and a Store: %d -> %d", c0, c1)
	}
	step("AddTag+Validate+VAS+IAS, uncontended", func() {
		th.AddTag(a, core.WordSize)
		if !th.Validate() || !th.VAS(a, 1) || !th.IAS(a, 2) {
			t.Fatal("uncontended validation failed")
		}
	}, 0)
	t0.Store(a, 9)
	step("failed Validate", func() { th.Validate() }, 1)
	step("failed VAS", func() { th.VAS(b, 1) }, 1)
	step("failed IAS", func() { th.IAS(b, 1) }, 1)
	th.ClearTagSet()
	step("overflowing AddTag", func() {
		th.AddTag(a, core.WordSize)
		th.AddTag(b, core.WordSize)
		th.AddTag(c, core.WordSize)
	}, 0)
	step("Validate after overflow", func() { th.Validate() }, 1)
}

// spareThread: the spare handle is a coherent Load/Store/CAS/Alloc
// participant outside the counted thread set, and nothing more.
func spareThread(t *testing.T, newMem Factory) {
	mem := newMem(1, 8)
	st, ok := mem.(core.SpareThreader)
	if !ok {
		t.Skip("memory is no core.SpareThreader")
	}
	sp := st.SpareThread()
	if sp == nil {
		t.Skip("memory has no spare handle to give")
	}
	th := mem.Thread(0)
	want(t, "NumThreads with a spare handed out", mem.NumThreads(), 1)
	a := sp.Alloc(1)
	if a.IsNil() || a.Offset() != 0 {
		t.Fatalf("spare Alloc gave %#x", uint64(a))
	}
	th.Store(a, 1)
	want(t, "spare Load", sp.Load(a), 1)
	th.AddTag(a, core.WordSize)
	sp.Store(a, 2)
	want(t, "Validate after a spare Store to the tagged line", th.Validate(), false)
	th.ClearTagSet()
	th.AddTag(a, core.WordSize)
	want(t, "spare CAS", sp.CAS(a, 2, 3), true)
	want(t, "Validate after a successful spare CAS", th.Validate(), false)
	th.ClearTagSet()
	want(t, "failed spare CAS", sp.CAS(a, 2, 4), false)
	want(t, "the word", th.Load(a), 3)
}

// epochAndLaxClock drives both capabilities the way every harness does,
// through core.RunPhase: a thread that ran ahead during setup starts the
// phase on the same clock as the idle ones, alignment disturbs neither
// memory nor tag state, and enrolled workers with uneven work all finish —
// an early finisher withdraws instead of holding the rest back, and the
// last one runs on alone without stalling. An enrolled thread's hot path
// allocates nothing either.
func epochAndLaxClock(t *testing.T, newMem Factory) {
	const workers = 3
	mem := newMem(workers, 8)
	_, isEA := mem.(core.EpochAligner)
	t0 := mem.Thread(0)
	_, isLC := t0.(core.LaxClocked)
	if !isEA && !isLC {
		t.Skip("memory is no core.EpochAligner and its threads are no core.LaxClocked")
	}
	a := mem.Alloc(1)
	for i := uint64(0); i < 100; i++ { // thread 0 runs ahead, as after a prefill
		t0.Store(a, i)
	}
	t0.AddTag(a, core.WordSize)
	var startClock [workers]uint64
	var ran atomic.Int64
	core.RunPhase(mem, workers, func(w int, th core.Thread) {
		if th != mem.Thread(w) {
			t.Errorf("RunPhase passed worker %d a handle other than Thread(%d)", w, w)
		}
		if oc, ok := th.(core.OpClocked); ok {
			startClock[w], _ = oc.OpClock()
		}
		for i := 0; i < 4000*(w+1); i++ {
			th.Load(a)
		}
		ran.Add(1)
	})
	want(t, "workers run by RunPhase", ran.Load(), workers)
	if isEA {
		for w := 1; w < workers; w++ {
			want(t, "an idle thread's clock on entering the phase, against the busy thread's", startClock[w], startClock[0])
		}
	}
	want(t, "the word after the phase", t0.Load(a), 99)
	want(t, "Validate of a tag held across the phase", t0.Validate(), true)
	t0.ClearTagSet()
	if isLC { // an enrolled thread publishes its clock on every op
		var failures []string
		core.RunPhase(mem, 1, func(_ int, th core.Thread) { failures = hotPathAllocs(mem, th) })
		for _, f := range failures {
			t.Error("enrolled: " + f)
		}
	}
}

// countTracer counts events by kind without allocating.
type countTracer struct{ n [16]atomic.Int64 }

func (c *countTracer) Trace(e core.Event) { c.n[e.Kind].Add(1) }

func (c *countTracer) total() (n int64) {
	for i := range c.n {
		n += c.n[i].Load()
	}
	return n
}

// tagScript is one pass over every tag operation, for the hook round trips.
func tagScript(t *testing.T, th core.Thread, a core.Addr) {
	t.Helper()
	th.AddTag(a, 2*core.LineSize)
	th.RemoveTag(a, core.LineSize)
	if !th.Validate() || !th.VAS(a, 1) || !th.IAS(a, 2) {
		t.Fatal("uncontended tag script failed")
	}
	th.ClearTagSet()
}

// tagEventLog keeps the tag events of the core vocabulary, each with its
// line as an offset from base when the kind carries one.
type tagEventLog struct {
	base   core.Line
	events []string
}

func (r *tagEventLog) Trace(e core.Event) {
	switch e.Kind {
	case core.EvTagAdd, core.EvTagRemove, core.EvTagEvicted,
		core.EvCommitVAS, core.EvCommitIAS, core.EvVASFail, core.EvIASFail:
		r.events = append(r.events, fmt.Sprintf("%v +%d", e.Kind, core.Line(e.Line)-r.base))
	case core.EvValidateOK, core.EvValidateFail:
		r.events = append(r.events, e.Kind.String())
	}
}

// tagEvents is what a traced memory reports for eventScript, in order.
var tagEvents = []string{
	"TagAdd +0", "TagAdd +1", "ValidateOK", "CommitVAS +0", "TagRemove +1", "CommitIAS +0",
	"TagAdd +2", "TagEvicted +2", "ValidateFail", "VASFail +2", "IASFail +2",
	"TagAdd +0", "TagAdd +1", "TagAdd +2", "TagAdd +3", "ValidateFail", "VASFail +0",
	"TagAdd +3", "ValidateOK",
	"TagAdd +0", "TagAdd +1", "TagAdd +2", "ValidateOK", "CommitVAS +1", "ValidateOK",
}

// eventScript drives one thread with Max_Tags 4 through every path that
// reports a tag event: multi-line tagging, validations that pass and fail,
// VAS and IAS commits and their failures (after a forced eviction and after
// an overflow, which itself reports nothing), tag removal, and re-tagging
// held lines. It returns TagCount after each re-tag step.
func eventScript(th core.Thread, ev core.TagEvictor, base core.Addr) (counts []int) {
	line := func(i int) core.Addr { return base + core.Addr(i*core.LineSize) }
	th.AddTag(line(0), 2*core.LineSize)
	th.Validate()
	th.VAS(line(0), 7)
	th.RemoveTag(line(1), core.LineSize)
	th.IAS(line(0), 8)
	th.ClearTagSet()

	th.AddTag(line(2), core.LineSize)
	ev.ForceTagEviction(line(2).Line())
	th.Validate()
	th.VAS(line(2), 9)
	th.IAS(line(2), 10)
	th.ClearTagSet()

	for i := 0; i <= 4; i++ {
		th.AddTag(line(i), core.LineSize)
	}
	th.Validate()
	th.VAS(line(0), 11)
	th.ClearTagSet()

	th.AddTag(line(3), core.LineSize)
	th.Validate()
	th.ClearTagSet()

	// Re-tagging a held line — the same word, a second word of the newest
	// line (a tree node's key, then its child pointer), an older line, and a
	// span that is half held — adds only the lines not yet in the set.
	th.AddTag(line(0), core.WordSize)
	th.AddTag(line(1), core.WordSize)
	counts = append(counts, th.TagCount())
	th.AddTag(line(1), core.WordSize)
	th.AddTag(line(1).Plus(3), core.WordSize)
	th.AddTag(line(0), core.LineSize)
	counts = append(counts, th.TagCount())
	th.AddTag(line(1), 2*core.LineSize)
	counts = append(counts, th.TagCount())
	th.Validate()
	th.VAS(line(1), 12)
	th.Validate()
	th.ClearTagSet()
	return counts
}

// tracerRoundTrip: an attached tracer sees exactly tagEvents for
// eventScript (on a thread that can be made to lose a tag), the hot path
// stays allocation-free while one is attached, and a detached one hears
// nothing more.
func tracerRoundTrip(t *testing.T, newMem Factory) {
	mem := newMem(1, 4)
	tb, ok := mem.(core.Traceable)
	if !ok {
		t.Skip("memory is no core.Traceable")
	}
	th, a := mem.Thread(0), mem.Alloc(5*core.WordsPerLine)
	for i := 0; i < 5; i++ { // resident lines: no fills or displacements in the script
		th.Store(a+core.Addr(i*core.LineSize), 1)
	}
	if ev, ok := th.(core.TagEvictor); ok {
		log := &tagEventLog{base: a.Line()}
		tb.SetTracer(log)
		counts := eventScript(th, ev, a)
		want(t, "TagCount after each re-tag step", fmt.Sprint(counts), "[2 2 3]")
		if !slices.Equal(log.events, tagEvents) {
			t.Errorf("tag events:\n got %q\nwant %q", log.events, tagEvents)
		}
	}
	tagScript(t, th, a)
	tr := &countTracer{}
	tb.SetTracer(tr)
	tagScript(t, th, a)
	want(t, "events delivered while attached", tr.total() > 0, true)
	allocBudget(t, mem)
	tb.SetTracer(nil)
	seen := tr.total()
	tagScript(t, th, a)
	want(t, "events delivered after detach", tr.total()-seen, 0)
	allocBudget(t, mem)
}

func telemetryRoundTrip(t *testing.T, newMem Factory) {
	mem := newMem(2, 8)
	tb, ok := mem.(telemetry.Attacher)
	if !ok {
		t.Skip("memory is no telemetry.Attacher")
	}
	th, a := mem.Thread(0), mem.Alloc(4*core.WordsPerLine)
	tagScript(t, th, a)
	set := telemetry.NewSet(mem.NumThreads())
	tb.SetTelemetry(set)
	tagScript(t, th, a)
	want(t, "tag insertions thread 0 recorded while attached", set.Core(0).TagOccupancy.Count(), 2)
	want(t, "tag insertions recorded in thread 1's slot", set.Core(1).TagOccupancy.Count(), 0)
	allocBudget(t, mem)
	tb.SetTelemetry(nil)
	seen := set.Core(0).TagOccupancy.Count()
	tagScript(t, th, a)
	want(t, "tag insertions recorded after detach", set.Core(0).TagOccupancy.Count()-seen, 0)
	allocBudget(t, mem)
}

// reclaimRoundTrip: while a domain is attached a held tag is announced in
// the holder's handle — an immediate-policy pool will not free the object —
// and after detach tag operations announce nothing.
func reclaimRoundTrip(t *testing.T, newMem Factory) {
	mem := newMem(2, 8)
	rb, ok := mem.(reclaim.Attacher)
	if !ok {
		t.Skip("memory is no reclaim.Attacher")
	}
	t0, t1 := mem.Thread(0), mem.Thread(1)
	scratch := mem.Alloc(4 * core.WordsPerLine)
	tagScript(t, t1, scratch)

	d := reclaim.NewDomainFor(mem)
	rb.SetReclaim(d)
	pool := reclaim.NewPool(d, core.WordsPerLine, reclaim.PolicyImmediate)
	obj := pool.Alloc(t0)
	t1.AddTag(obj, core.WordSize)
	pool.Retire(t0, obj)
	want(t, "objects freed while a thread announces a tag on the line", pool.Stats().Freed, 0)
	t1.ClearTagSet()
	want(t, "pipeline drained once the tag set is cleared", pool.Scan(t0), true)
	want(t, "objects freed after ClearTagSet retracted the tag", pool.Stats().Freed, 1)
	tagScript(t, t1, scratch)
	allocBudget(t, mem)

	rb.SetReclaim(nil)
	obj = pool.Alloc(t0)
	t1.AddTag(obj, core.WordSize)
	pool.Retire(t0, obj)
	want(t, "objects freed with the tagging thread detached", pool.Stats().Freed, 2)
	t1.ClearTagSet()
	tagScript(t, t1, scratch)
	allocBudget(t, mem)
}

// reclaimRefusedAttachesNothing: a domain with fewer handles than the
// memory has threads is refused before any thread is attached, so a caller
// that recovers is left with a memory whose tags announce nothing.
func reclaimRefusedAttachesNothing(t *testing.T, newMem Factory) {
	mem := newMem(2, 8)
	rb, ok := mem.(reclaim.Attacher)
	if !ok {
		t.Skip("memory is no reclaim.Attacher")
	}
	d := reclaim.NewDomain(1, mem.MaxTags())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetReclaim accepted a domain with fewer handles than threads")
			}
		}()
		rb.SetReclaim(d)
	}()
	t0 := mem.Thread(0)
	pool := reclaim.NewPool(d, core.WordsPerLine, reclaim.PolicyImmediate)
	obj := pool.Alloc(t0)
	t0.AddTag(obj, core.WordSize)
	pool.Retire(t0, obj)
	want(t, "objects freed with a tag held by a thread of a refused attach", pool.Stats().Freed, 1)
	t0.ClearTagSet()
}
