package abtree

type node struct{}
type leaf struct{}

func (n *node) fixDegree() {}

// A second copy of the rule, for the other node kind.
func (l *leaf) fixDegree() {}
