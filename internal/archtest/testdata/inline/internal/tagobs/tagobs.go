// Package tagobs has every event method of the real Observer, one of them
// kept from inlining.
package tagobs

type Observer struct{ n int }

func (o *Observer) Tagged()    { o.n++ }
func (o *Observer) Untagged()  { o.n++ }
func (o *Observer) Cleared()   { o.n++ }
func (o *Observer) Validated() { o.n++ }
func (o *Observer) Committed() { o.n++ }
func (o *Observer) Emit()      { o.n++ }

//go:noinline
func (o *Observer) Valid() { o.n++ }
