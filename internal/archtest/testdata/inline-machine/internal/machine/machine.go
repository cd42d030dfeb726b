// Package machine has every per-access helper of the real directory. Three
// no longer inline: release and coreBits.remove are kept from it, and lock's
// fast path has grown past the budget.
package machine

import "sync/atomic"

type dirState struct{ word uint32 }

func (s *dirState) lock() {
	if !atomic.CompareAndSwapUint32(&s.word, 0, 1) {
		s.lockSlow()
		s.lockSlow()
	}
}

//go:noinline
func (s *dirState) lockSlow() {}

func (s *dirState) unlock() { atomic.AddUint32(&s.word, ^uint32(0)) }

//go:noinline
func (s *dirState) release(owner int) { atomic.StoreUint32(&s.word, uint32(owner+1)<<1) }

type coreBits []byte

func (s coreBits) has(c int) bool { return s[c>>3]&(1<<(c&7)) != 0 }
func (s coreBits) add(c int)      { s[c>>3] |= 1 << (c & 7) }

//go:noinline
func (s coreBits) remove(c int) { s[c>>3] &^= 1 << (c & 7) }

type dirEntry struct {
	*dirState
	masks []byte
}

func (d dirEntry) sharers() coreBits { return d.masks[:len(d.masks)/2] }
func (d dirEntry) taggers() coreBits { return d.masks[len(d.masks)/2:] }
