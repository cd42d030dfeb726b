// Vacation runs the STAMP Vacation travel-reservation benchmark (the
// paper's Figure 8 workload) on the simulated machine, comparing baseline
// NOrec with tagged NOrec and verifying the reservation system's
// conservation invariants afterwards.
//
//	go run ./examples/vacation                 # small tables, quick
//	go run ./examples/vacation -r 4096 -t 128  # larger run
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stm"
	"repro/internal/vacation"
)

func main() {
	relations := flag.Int("r", 1024, "table size (-r)")
	transactions := flag.Int("t", 64, "transactions per client (-t)")
	clients := flag.Int("c", 4, "concurrent clients (simulated cores)")
	flag.Parse()

	p := vacation.PaperParams() // -n4 -q60 -u90
	p.Relations = *relations
	p.Transactions = *transactions

	fmt.Printf("STAMP Vacation: -n%d -q%d -u%d -r%d -t%d, %d clients\n\n",
		p.QueriesPerTx, p.PercentQuery, p.PercentUser, p.Relations, p.Transactions, *clients)
	fmt.Printf("%-8s %14s %10s %12s %12s\n", "variant", "Ktx/s (sim)", "miss %", "aborts/tx", "energy/tx")

	for _, v := range []struct {
		name string
		mk   func(core.Memory) *stm.TM
	}{
		{"norec", stm.NewNOrec},
		{"tagged", stm.NewTagged},
	} {
		cfg := machine.DefaultConfig(*clients)
		cfg.MemBytes = 256 << 20
		cfg.MaxTags = 256 // transactional read sets span many lines
		m := machine.New(cfg)
		tm := v.mk(m)
		mgr := vacation.NewManager(m, tm)
		vacation.Populate(mgr, m.Thread(0), p, 1)

		before := m.Snapshot()
		core.RunPhase(m, *clients, func(w int, th core.Thread) {
			vacation.Client(mgr, th, p, int64(100+w))
		})
		after := m.Snapshot()

		if ok, detail := mgr.CheckTables(m.Thread(0)); !ok {
			fmt.Fprintf(os.Stderr, "INVARIANT VIOLATION (%s): %s\n", v.name, detail)
			os.Exit(1)
		}

		tx := float64(*clients * p.Transactions)
		cycles := after.MaxCycles - before.MaxCycles
		fmt.Printf("%-8s %14.1f %10.2f %12.3f %12.1f\n",
			v.name,
			tx/(float64(cycles)/cfg.ClockHz)/1e3,
			100*float64(after.Misses()-before.Misses())/float64(after.Accesses()-before.Accesses()),
			float64(tm.Aborts.Load())/tx,
			(after.Energy-before.Energy)/tx)
	}
	fmt.Println("\nconservation invariants verified (capacity and reservation lists consistent)")
}
