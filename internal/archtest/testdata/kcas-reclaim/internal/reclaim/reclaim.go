package reclaim

func NewPool() {}
