package vacation_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stm"
	"repro/internal/vacation"
)

// Example runs STAMP Vacation (the paper's Figure 8 workload) with four
// clients on the simulated machine, under NOrec and under tagged NOrec,
// then checks the reservation system's conservation invariants.
func Example() {
	const clients = 4
	p := vacation.PaperParams() // -n4 -q60 -u90
	p.Relations, p.Transactions = 1024, 64
	for _, v := range []struct {
		name string
		mk   func(core.Memory) *stm.TM
	}{{"NOrec", stm.NewNOrec}, {"tagged NOrec", stm.NewTagged}} {
		cfg := machine.DefaultConfig(clients)
		cfg.MemBytes = 256 << 20
		cfg.MaxTags = 256 // transactional read sets span many lines
		m := machine.New(cfg)
		mgr := vacation.NewManager(m, v.mk(m))
		vacation.Populate(mgr, m.Thread(0), p, 1)
		core.RunPhase(m, clients, func(w int, th core.Thread) {
			vacation.Client(mgr, th, p, int64(100+w))
		})
		if ok, detail := mgr.CheckTables(m.Thread(0)); !ok {
			fmt.Println(v.name, "tables inconsistent:", detail)
			continue
		}
		fmt.Printf("%s: %d transactions, tables consistent\n", v.name, clients*p.Transactions)
	}
	// Output:
	// NOrec: 256 transactions, tables consistent
	// tagged NOrec: 256 transactions, tables consistent
}
