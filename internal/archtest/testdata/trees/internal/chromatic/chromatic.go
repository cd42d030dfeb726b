package chromatic

type Tree struct{}

// chromatic's own descent, beside bst.Tree's.
func (t *Tree) contains(k uint64) bool { return false }
