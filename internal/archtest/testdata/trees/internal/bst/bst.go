package bst

type Tree struct{}

func (t *Tree) Contains(k uint64) bool { return false }
