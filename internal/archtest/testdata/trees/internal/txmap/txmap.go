package txmap

type node struct{ left, right *node }

func (n *node) rotateLeft() {}

func (n *node) relink(childIsLeft bool) {
	if childIsLeft {
		n.left = nil
	}
}
