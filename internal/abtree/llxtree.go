package abtree

import (
	"repro/internal/core"
	"repro/internal/treeupdate"
)

// LLXTree is the (a,b)-tree synchronized with the LLX/SCX primitives of
// Brown et al. — the paper's software baseline (Section 5.1, "Using LLX and
// SCX"). Every structural change LLXes the involved nodes, builds fresh
// replacements, and commits with one SCX that finalizes the removed nodes:
// the template of tree.go run through treeupdate.LLX.
type LLXTree struct{ set }

// NewLLX creates an empty tree with parameters a, b (b >= 2a-1).
func NewLLX(mem core.Memory, a, b int) *LLXTree {
	t := &LLXTree{set{tree: newTree(mem, a, b)}}
	t.steps = treeupdate.NewLLX(mem, t.ly.mutOff(), t.ly.mutWords())
	return t
}
