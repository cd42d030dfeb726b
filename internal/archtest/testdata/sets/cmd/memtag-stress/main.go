package main

import "repro/internal/reclaim"

func main() { reclaim.NewPool(nil, 4, 0) }
