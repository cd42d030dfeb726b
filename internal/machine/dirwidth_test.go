package machine

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// dirWidths are machine sizes on both sides of the directory's set-byte
// edges: 9, 17 and 65 cores each start a new byte (65 makes a set that is
// one word and one byte), and 512 is the widest machine.
var dirWidths = []int{8, 9, 16, 17, 64, 65, 128, 512}

// edgeCores returns the cores on either side of each kind of byte edge of a
// core set (0, 7, 8, 15, 16, 63, 64, 127, 128, 255, 256, 511) that exist on
// a machine of the given size, and cores-1: the first and last bit of the
// first two bytes, of a word and of the wider sets.
func edgeCores(cores int) []int {
	var out []int
	for _, c := range []int{0, 7, 8, 15, 16, 63, 64, 127, 128, 255, 256, 511} {
		if c < cores {
			out = append(out, c)
		}
	}
	if last := cores - 1; out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// setOf is the ascending member list DebugLine reports for cores cs.
func setOf(cs ...int) []int {
	s := slices.Clone(cs)
	slices.Sort(s)
	return s
}

// wantLine fails unless the directory holds exactly the given state for
// line a; comparing whole member lists also catches a stray bit in another
// mask byte.
func wantLine(t *testing.T, m *Machine, a core.Addr, step string, sharers []int, owner int, taggers []int) {
	t.Helper()
	gs, gotOwner, gt := m.DebugLine(a.Line())
	if !slices.Equal(gs, sharers) || gotOwner != owner || !slices.Equal(gt, taggers) {
		t.Fatalf("%s: directory (sharers %v, owner %d, taggers %v), want (%v, %d, %v)",
			step, gs, gotOwner, gt, sharers, owner, taggers)
	}
}

// TestDirectoryWidths drives each byte-edge core through the sharer, owner,
// tagger, invalidation and IAS transitions on machines whose core sets are
// one to 64 bytes wide, checking every state via DebugLine.
func TestDirectoryWidths(t *testing.T) {
	for _, cores := range dirWidths {
		cfg := DefaultConfig(cores)
		cfg.MemBytes = 1 << 20
		m := New(cfg)
		cs := edgeCores(cores)
		all := setOf(cs...)
		for _, actor := range cs {
			a, b := m.Alloc(1), m.Alloc(1)
			th := m.threads[actor]

			for _, c := range cs {
				m.threads[c].Load(a)
			}
			wantLine(t, m, a, "all load", all, -1, nil)
			for _, c := range cs {
				m.threads[c].AddTag(a, core.WordSize)
			}
			wantLine(t, m, a, "all tag", all, -1, all)

			// A store invalidates every other sharer and its tag.
			th.Store(a, 1)
			wantLine(t, m, a, "store", setOf(actor), actor, setOf(actor))
			for _, c := range cs {
				if ok := m.threads[c].Validate(); ok != (c == actor) {
					t.Fatalf("%d cores, actor %d: core %d Validate = %v after the store", cores, actor, c, ok)
				}
				m.threads[c].ClearTagSet()
			}
			wantLine(t, m, a, "clear tags", setOf(actor), actor, nil)

			// A reader downgrades the owner.
			reader := cs[0]
			if reader == actor {
				reader = cs[len(cs)-1]
			}
			m.threads[reader].Load(a)
			wantLine(t, m, a, "downgrade", setOf(actor, reader), -1, nil)

			// IAS on b invalidates every tagged line at all other cores.
			for _, c := range cs {
				m.threads[c].Load(a)
				m.threads[c].AddTag(a, core.WordSize)
			}
			th.AddTag(b, core.WordSize)
			if !th.IAS(b, 2) {
				t.Fatalf("%d cores, actor %d: uncontended IAS failed", cores, actor)
			}
			wantLine(t, m, a, "IAS tagged line", setOf(actor), actor, setOf(actor))
			wantLine(t, m, b, "IAS target", setOf(actor), actor, setOf(actor))
			for _, c := range cs {
				if ok := m.threads[c].Validate(); ok != (c == actor) {
					t.Fatalf("%d cores, actor %d: core %d Validate = %v after the IAS", cores, actor, c, ok)
				}
				m.threads[c].ClearTagSet()
			}

			// A coherent agent's store empties the line's sets.
			for _, c := range cs {
				m.threads[c].Load(a)
			}
			m.SpareThread().Store(a, 3)
			wantLine(t, m, a, "spare store", nil, -1, nil)
		}
	}
}

// TestDirectoryFootprint touches 64 Ki lines and charges the heap growth
// to them: at 8 cores a line costs at most 72 B (64 of them data), and
// the directory's share is one 4-byte state word plus 2 B of slack,
// growing by one sharer and one tagger byte per 8 cores, no faster.
func TestDirectoryFootprint(t *testing.T) {
	const lines = 16 * mem.ChunkLines
	for _, cores := range dirWidths {
		cfg := DefaultConfig(cores)
		cfg.MemBytes = 2 * lines * core.LineSize
		m := New(cfg)
		ghost := m.SpareThread()
		before := heapAlloc()
		for l := 0; l < lines; l++ {
			ghost.Load(core.Addr((mem.ChunkLines + l) * core.LineSize))
		}
		perLine := float64(heapAlloc()-before) / lines
		runtime.KeepAlive(m)

		setBytes := (cores + 7) / 8
		dirPerLine := perLine - core.LineSize
		t.Logf("%3d cores (%d-byte sets): %.1f B/line, %.1f of them directory", cores, setBytes, perLine, dirPerLine)
		if cores == 8 && perLine > 72 {
			t.Errorf("8 cores: %.1f B per touched line, want <= 72", perLine)
		}
		if limit := float64(6 + 2*setBytes); dirPerLine > limit {
			t.Errorf("%d cores: %.1f directory B per line, want <= %.0f (6 + 2 per set byte)", cores, dirPerLine, limit)
		}
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
