package machine

// A test file may define what it likes: this one is not convicted.
func (m *Machine) SetReclaim() {}
