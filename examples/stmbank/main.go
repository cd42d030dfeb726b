// Stmbank runs a classic bank-transfer workload over the NOrec software
// transactional memory and its tagged variant (Section 5.2 of the paper),
// verifying money conservation and comparing abort rates and coherence
// behaviour. Tagged NOrec validates its read set with one local tag check
// and acquires the global lock by invalidate-and-swap.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stm"
)

const (
	cores      = 8
	accounts   = 32
	initial    = 1000
	transfers  = 200
	transferSz = 25
)

func main() {
	for _, variant := range []struct {
		name string
		mk   func(core.Memory) *stm.TM
	}{
		{"NOrec ", stm.NewNOrec},
		{"Tagged", stm.NewTagged},
	} {
		cfg := machine.DefaultConfig(cores)
		cfg.MemBytes = 16 << 20
		m := machine.New(cfg)
		tm := variant.mk(m)

		// Open the accounts.
		addrs := make([]core.Addr, accounts)
		t0 := m.Thread(0)
		for i := range addrs {
			addrs[i] = m.Alloc(1)
			t0.Store(addrs[i], initial)
		}

		// One parallel phase: clocks aligned, every core enrolled in lax
		// clock synchronization before the first transfer.
		before := m.Snapshot()
		core.RunPhase(m, cores, func(w int, th core.Thread) {
			for i := 0; i < transfers; i++ {
				src := (w*31 + i*17) % accounts
				dst := (w*13 + i*7 + 1) % accounts
				if src == dst {
					dst = (dst + 1) % accounts
				}
				tm.Run(th, func(tx *stm.Tx) {
					s := tx.Read(addrs[src])
					d := tx.Read(addrs[dst])
					tx.Write(addrs[src], s-transferSz)
					tx.Write(addrs[dst], d+transferSz)
				})
			}
		})
		after := m.Snapshot()

		var sum uint64
		for _, a := range addrs {
			sum += t0.Load(a)
		}
		tx := float64(cores * transfers)
		cycles := after.MaxCycles - before.MaxCycles
		fmt.Printf("%s: %4d tx, balance %d (want %d), %.1f Ktx/s, %.2f aborts/tx, %.2f validations/tx (%.1f%% failed)\n",
			variant.name, cores*transfers, sum, accounts*initial,
			tx/(float64(cycles)/cfg.ClockHz)/1e3,
			float64(tm.Aborts.Load())/tx,
			float64(after.Validates-before.Validates)/tx,
			100*float64(after.ValidateFails-before.ValidateFails)/float64(max(1, after.Validates-before.Validates)))
	}
}
