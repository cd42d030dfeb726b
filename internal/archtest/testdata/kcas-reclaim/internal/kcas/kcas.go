package kcas

import pools "repro/internal/reclaim"

var _ = pools.NewPool
