package vacation

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/txmap"
	"repro/internal/vtags"
)

func smallParams() Params {
	return Params{QueriesPerTx: 4, PercentQuery: 60, PercentUser: 90, Relations: 64, Transactions: 100}
}

func TestManagerBasics(t *testing.T) {
	mem := vtags.New(32<<20, 1)
	tm := stm.NewNOrec(mem)
	m := NewManager(mem, tm)
	th := mem.Thread(0)

	tm.Run(th, func(tx *stm.Tx) {
		m.AddResource(tx, th, KindCar, 1, 2, 75)
		m.AddCustomer(tx, th, 10)
	})
	tm.Run(th, func(tx *stm.Tx) {
		if price, ok := m.QueryPrice(tx, KindCar, 1); !ok || price != 75 {
			t.Errorf("QueryPrice = %d,%v", price, ok)
		}
		if _, ok := m.QueryPrice(tx, KindCar, 2); ok {
			t.Error("phantom resource")
		}
		if !m.Reserve(tx, th, 10, KindCar, 1) {
			t.Error("reserve failed")
		}
		if !m.Reserve(tx, th, 10, KindCar, 1) {
			t.Error("second reserve failed")
		}
		if m.Reserve(tx, th, 10, KindCar, 1) {
			t.Error("overbooked")
		}
	})
	tm.Run(th, func(tx *stm.Tx) {
		if bill, ok := m.QueryCustomerBill(tx, 10); !ok || bill != 150 {
			t.Errorf("bill = %d,%v want 150", bill, ok)
		}
	})
	tm.Run(th, func(tx *stm.Tx) {
		if !m.DeleteCustomer(tx, 10) {
			t.Error("delete customer failed")
		}
		if m.DeleteCustomer(tx, 10) {
			t.Error("double delete succeeded")
		}
	})
	// Capacity returned on customer deletion.
	tm.Run(th, func(tx *stm.Tx) {
		if price, ok := m.QueryPrice(tx, KindCar, 1); !ok || price != 75 {
			t.Errorf("capacity not restored: %d,%v", price, ok)
		}
	})
	if ok, detail := m.CheckTables(th); !ok {
		t.Fatalf("invariants: %s", detail)
	}
}

// TestCheckTablesReadsEveryTree holds CheckTables to every tree of hashed
// tables. A customer in the last customer tree reserves a car from resource
// tree 0, so the used unit balances only if the customer's list is counted;
// then a unit leaks from a car in the last resource tree, which must be
// caught. A walk that stopped after tree 0 would count the unit but not the
// reservation, and miss the leak.
func TestCheckTablesReadsEveryTree(t *testing.T) {
	const customerBits, resourceBits = 3, 2
	mem := vtags.New(32<<20, 1)
	tm := stm.NewNOrec(mem)
	m := NewHashedManager(mem, tm, customerBits, resourceBits)
	th := mem.Thread(0)
	firstIn := func(tbl *txmap.Map, tree int) uint64 {
		id := uint64(1)
		for tbl.TreeOf(id) != tree {
			id++
		}
		return id
	}
	cust := firstIn(m.customers, 1<<customerBits-1)
	car := firstIn(m.resources[KindCar], 0)
	lastCar := firstIn(m.resources[KindCar], 1<<resourceBits-1)

	tm.Run(th, func(tx *stm.Tx) {
		m.AddResource(tx, th, KindCar, car, 2, 75)
		m.AddResource(tx, th, KindCar, lastCar, 2, 75)
		m.AddCustomer(tx, th, cust)
		if !m.Reserve(tx, th, cust, KindCar, car) {
			t.Error("reserve failed")
		}
	})
	if ok, detail := m.CheckTables(th); !ok {
		t.Fatalf("a reservation in customer tree %d: %s", 1<<customerBits-1, detail)
	}

	tm.Run(th, func(tx *stm.Tx) {
		rec, _ := m.resources[KindCar].Get(tx, lastCar)
		r := core.Addr(rec)
		tx.Write(r.Plus(rNumFree), tx.Read(r.Plus(rNumFree))-1)
	})
	if ok, _ := m.CheckTables(th); ok {
		t.Fatalf("CheckTables missed a capacity leak in resource tree %d", 1<<resourceBits-1)
	}
}

func TestDeleteResource(t *testing.T) {
	mem := vtags.New(32<<20, 1)
	tm := stm.NewNOrec(mem)
	m := NewManager(mem, tm)
	th := mem.Thread(0)
	tm.Run(th, func(tx *stm.Tx) {
		m.AddResource(tx, th, KindRoom, 5, 100, 60)
		if !m.DeleteResource(tx, KindRoom, 5, 40) {
			t.Error("partial delete failed")
		}
		if m.DeleteResource(tx, KindRoom, 5, 100) {
			t.Error("overdelete succeeded")
		}
		if !m.DeleteResource(tx, KindRoom, 5, 60) {
			t.Error("full delete failed")
		}
		if _, ok := m.QueryPrice(tx, KindRoom, 5); ok {
			t.Error("record survives zero capacity")
		}
	})
}

func TestPopulate(t *testing.T) {
	mem := vtags.New(64<<20, 1)
	tm := stm.NewNOrec(mem)
	m := NewManager(mem, tm)
	th := mem.Thread(0)
	p := smallParams()
	Populate(m, th, p, 1)
	tm.Run(th, func(tx *stm.Tx) {
		for id := uint64(1); id <= uint64(p.Relations); id++ {
			for k := 0; k < numKinds; k++ {
				if price, ok := m.QueryPrice(tx, k, id); !ok || price < 50 || price > 90 {
					t.Fatalf("resource %d/%d: price %d ok=%v", k, id, price, ok)
				}
			}
		}
	})
	if ok, detail := m.CheckTables(th); !ok {
		t.Fatalf("invariants after populate: %s", detail)
	}
}

func TestClientSequential(t *testing.T) {
	mem := vtags.New(64<<20, 1)
	tm := stm.NewNOrec(mem)
	m := NewManager(mem, tm)
	th := mem.Thread(0)
	p := smallParams()
	Populate(m, th, p, 1)
	n := Client(m, th, p, 2)
	if n != p.Transactions {
		t.Fatalf("ran %d transactions, want %d", n, p.Transactions)
	}
	if ok, detail := m.CheckTables(th); !ok {
		t.Fatalf("invariants after client: %s", detail)
	}
}

func TestClientsConcurrent(t *testing.T) {
	for _, mk := range []struct {
		name string
		fn   func(core.Memory) *stm.TM
	}{{"NOrec", stm.NewNOrec}, {"Tagged", stm.NewTagged}} {
		t.Run(mk.name, func(t *testing.T) {
			const workers = 4
			mem := vtags.New(256<<20, workers)
			tm := mk.fn(mem)
			m := NewManager(mem, tm)
			p := smallParams()
			Populate(m, mem.Thread(0), p, 1)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					Client(m, mem.Thread(w), p, int64(100+w))
				}(w)
			}
			wg.Wait()
			if ok, detail := m.CheckTables(mem.Thread(0)); !ok {
				t.Fatalf("invariants after concurrent clients: %s", detail)
			}
		})
	}
}
