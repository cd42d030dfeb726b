package stm_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stm"
)

// ExampleTM_Run moves money between 32 accounts from eight simulated
// cores, under NOrec and under tagged NOrec (the paper's Section 5.2),
// and checks that the transfers kept the bank's total. Tagged NOrec
// validates its read set with one local tag check and takes the global
// lock by invalidate-and-swap.
func ExampleTM_Run() {
	const cores, accounts, initial, transfers = 8, 32, 1000, 200
	for _, v := range []struct {
		name string
		mk   func(core.Memory) *stm.TM
	}{{"NOrec", stm.NewNOrec}, {"tagged NOrec", stm.NewTagged}} {
		cfg := machine.DefaultConfig(cores)
		cfg.MemBytes = 16 << 20
		m := machine.New(cfg)
		tm := v.mk(m)
		t0 := m.Thread(0)
		acct := make([]core.Addr, accounts)
		for i := range acct {
			acct[i] = m.Alloc(1)
			t0.Store(acct[i], initial)
		}

		core.RunPhase(m, cores, func(w int, th core.Thread) {
			for i := 0; i < transfers; i++ {
				src, dst := (w*31+i*17)%accounts, (w*13+i*7+1)%accounts
				if src == dst {
					dst = (dst + 1) % accounts
				}
				tm.Run(th, func(tx *stm.Tx) {
					s, d := tx.Read(acct[src]), tx.Read(acct[dst])
					tx.Write(acct[src], s-25)
					tx.Write(acct[dst], d+25)
				})
			}
		})

		var total uint64
		for _, a := range acct {
			total += t0.Load(a)
		}
		fmt.Printf("%s: %d transfers, total %d of %d\n", v.name, cores*transfers, total, accounts*initial)
	}
	// Output:
	// NOrec: 1600 transfers, total 32000 of 32000
	// tagged NOrec: 1600 transfers, total 32000 of 32000
}
