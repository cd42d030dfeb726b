package list

import (
	"testing"

	"repro/internal/intset"
)

func TestSequential(t *testing.T) {
	intset.CheckSequential(t, nil, nil, 100, 8, 1)
}
