package treeupdate

import (
	"repro/internal/core"
	"repro/internal/llxscx"
)

// LLX is the Step of Brown et al.'s LLX/SCX template, the paper's software
// baseline. Its storage is fixed — up to llxscx.MaxV held nodes, their info
// values and snapshots, and the SCX's argument arrays — so holding and
// committing allocate nothing on the host.
type LLX struct {
	mgr    *llxscx.Manager
	mutOff int // word offset of a node's mutable region
	width  int // snapshot words reserved per held node
	th     core.Thread

	n    int
	node [llxscx.MaxV]core.Addr
	info [llxscx.MaxV]uint64
	snap []uint64 // n × width captured mutable words

	_ [64]byte // steps of neighbouring threads sit in one slice
}

// finalize is every SCX's finalize flags: all dependencies but the first,
// the changed node.
var finalize = [llxscx.MaxV]bool{false, true, true, true, true}

// LLXSteps holds one LLX step per thread of a memory.
type LLXSteps []LLX

// NewLLX returns steps for nodes whose mutable words start at word mutOff
// and number at most mutWords.
func NewLLX(mem core.Memory, mutOff, mutWords int) LLXSteps {
	steps := make(LLXSteps, mem.NumThreads())
	for i := range steps {
		steps[i] = LLX{mgr: llxscx.New(mem), mutOff: mutOff, width: mutWords,
			snap: make([]uint64, llxscx.MaxV*mutWords)}
	}
	return steps
}

// On returns the calling thread's step, bound to its handle.
func (ss LLXSteps) On(th core.Thread) Step {
	s := &ss[th.ID()]
	s.th = th
	return s
}

func (s *LLX) Begin()                         { s.n = 0 }
func (s *LLX) End()                           {}
func (s *LLX) Seek(core.Addr) bool            { return true }
func (s *LLX) Down(drop, next core.Addr) bool { return true }
func (s *LLX) Snapshots() bool                { return true }
func (s *LLX) Release(core.Addr)              {} // only Commit's Owner and Removed become dependencies
func (s *LLX) Validate() bool                 { return true }
func (s *LLX) Ready() bool                    { return true }
func (s *LLX) Abandon()                       { s.n = 0 }
func (s *LLX) Reclaims() bool                 { return false }
func (s *LLX) Alloc() core.Addr               { return core.NilAddr }

func (s *LLX) Hold(n core.Addr, mut int) bool {
	at := s.n * s.width
	info, st := s.mgr.LLX(s.th, n, s.mutOff, mut, s.snap[at:at+mut])
	if st != llxscx.LLXSuccess {
		return false
	}
	s.node[s.n], s.info[s.n] = n, info
	s.n++
	return true
}

// held returns n's index in the held set.
func (s *LLX) held(n core.Addr) int {
	for k := 0; k < s.n; k++ {
		if s.node[k] == n {
			return k
		}
	}
	panic("treeupdate: node is not held")
}

func (s *LLX) Mut(n core.Addr, i int) uint64 { return s.snap[s.held(n)*s.width+i] }

// Commit is one SCX whose dependencies are the changed node, then the
// removed nodes in the order given, the latter finalized.
func (s *LLX) Commit(c Change) bool {
	var deps [llxscx.MaxV]core.Addr
	var infos [llxscx.MaxV]uint64
	deps[0], infos[0] = c.Owner, s.info[s.held(c.Owner)]
	k := 1
	for _, r := range c.Removed {
		if r.IsNil() {
			break
		}
		deps[k], infos[k] = r, s.info[s.held(r)]
		k++
	}
	s.n = 0
	return s.mgr.SCX(s.th, deps[:k], infos[:k], finalize[:k], c.Slot, uint64(c.Old), uint64(c.New))
}
